//! Peer supervision: the robustness core of the live node.
//!
//! [`Supervisor`] is a pure, time-injected state machine over the node's
//! outbound links — it owns no sockets, so every reconnect path is unit
//! testable without a network. For each peer it tracks one of four
//! states:
//!
//! * **Connected** — the link is up; heartbeats flow on the shared cadence.
//! * **Backoff** — the link is down; the next dial is scheduled with
//!   exponential backoff and seed-deterministic jitter, so a cluster
//!   replayed under the same seeds retries at the same offsets (no
//!   thundering herd, reproducible chaos runs).
//! * **Banned** — a control-plane partition: no dials until unbanned.
//! * **Exhausted** — the bounded reconnect budget ran out; the peer is
//!   given up on until a ban/unban cycle (a heal) resets it.
//!
//! The event loop asks [`Supervisor::due_dials`] which peers to dial this
//! tick and reports the outcome back ([`Supervisor::dial_succeeded`] /
//! [`Supervisor::dial_failed`] / [`Supervisor::connection_lost`]).

use std::time::{Duration, Instant};

use crate::wire::Telemetry;

/// Backoff shape and bounds for one peer's reconnect schedule.
#[derive(Debug, Clone, Copy)]
pub struct BackoffPolicy {
    /// First retry delay.
    pub base: Duration,
    /// Delay ceiling.
    pub cap: Duration,
    /// Consecutive failed dials tolerated before the link is declared
    /// [`LinkState::Exhausted`].
    pub budget: u32,
}

impl Default for BackoffPolicy {
    fn default() -> BackoffPolicy {
        BackoffPolicy {
            base: Duration::from_millis(50),
            cap: Duration::from_secs(2),
            budget: 40,
        }
    }
}

/// SplitMix64: a tiny, high-quality mixer for deterministic jitter.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The deterministic backoff schedule for one link.
#[derive(Debug, Clone)]
pub struct Backoff {
    policy: BackoffPolicy,
    seed: u64,
    attempt: u32,
}

impl Backoff {
    /// A fresh schedule; `seed` should mix the node seed and the peer id
    /// so each link jitters independently but reproducibly.
    pub fn new(policy: BackoffPolicy, seed: u64) -> Backoff {
        Backoff {
            policy,
            seed,
            attempt: 0,
        }
    }

    /// The delay before the next dial, or `None` once the budget is
    /// spent. Delay grows `base · 2^attempt` up to `cap`, then half the
    /// raw delay is replaced by seed-deterministic jitter.
    fn next_delay(&mut self) -> Option<Duration> {
        if self.attempt >= self.policy.budget {
            return None;
        }
        let shift = self.attempt.min(16);
        let raw = self
            .policy
            .base
            .saturating_mul(1u32 << shift)
            .min(self.policy.cap);
        let raw_ms = raw.as_millis() as u64;
        let jitter_span = (raw_ms / 2).max(1);
        let jitter = splitmix64(self.seed ^ u64::from(self.attempt)) % jitter_span;
        self.attempt += 1;
        Some(Duration::from_millis(raw_ms - raw_ms / 2 + jitter))
    }

    /// Resets the schedule after a successful connect (or a heal).
    pub fn reset(&mut self) {
        self.attempt = 0;
    }

    /// Whether the reconnect budget is now spent.
    pub fn exhausted(&self) -> bool {
        self.attempt >= self.policy.budget
    }
}

/// Where one outbound link currently stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkState {
    /// Up.
    Connected,
    /// Down; a dial fires once `retry_at` passes.
    Backoff {
        /// When the next dial is due.
        retry_at: Instant,
    },
    /// A dial is in flight (between `due_dials` and its outcome call).
    Dialing,
    /// Partitioned away by the control plane.
    Banned,
    /// Reconnect budget spent; waiting for an unban to reset.
    Exhausted,
}

/// One supervised outbound link.
#[derive(Debug)]
struct Link {
    id: u32,
    state: LinkState,
    backoff: Backoff,
    ever_connected: bool,
}

/// The supervision state machine over all outbound links.
#[derive(Debug)]
pub struct Supervisor {
    links: Vec<Link>,
    heartbeat_every: Duration,
    last_heartbeat: Option<Instant>,
    /// Aggregated supervision counters (merged into the node's telemetry).
    telemetry: Telemetry,
}

impl Supervisor {
    /// Supervises the given peer ids. Every link starts due for an
    /// immediate first dial.
    pub fn new(
        peer_ids: impl IntoIterator<Item = u32>,
        policy: BackoffPolicy,
        seed: u64,
        heartbeat_every: Duration,
        now: Instant,
    ) -> Supervisor {
        let links = peer_ids
            .into_iter()
            .map(|id| Link {
                id,
                state: LinkState::Backoff { retry_at: now },
                backoff: Backoff::new(policy, splitmix64(seed) ^ u64::from(id)),
                ever_connected: false,
            })
            .collect();
        Supervisor {
            links,
            heartbeat_every,
            last_heartbeat: None,
            telemetry: Telemetry::default(),
        }
    }

    fn link_mut(&mut self, id: u32) -> Option<&mut Link> {
        self.links.iter_mut().find(|l| l.id == id)
    }

    /// Peers whose dial is due at `now`. Each returned id is moved to
    /// [`LinkState::Dialing`] and counted as a reconnect attempt; the
    /// caller must follow up with [`Supervisor::dial_succeeded`] or
    /// [`Supervisor::dial_failed`].
    pub fn due_dials(&mut self, now: Instant) -> Vec<u32> {
        let mut due = Vec::new();
        for link in &mut self.links {
            if let LinkState::Backoff { retry_at } = link.state {
                if retry_at <= now {
                    link.state = LinkState::Dialing;
                    self.telemetry.reconnect_attempts += 1;
                    due.push(link.id);
                }
            }
        }
        due
    }

    /// Marks a dial as successful. Returns `true` if this was a
    /// *re*connect (the peer had been connected before), which is when
    /// the caller should resubscribe state.
    pub fn dial_succeeded(&mut self, id: u32) -> bool {
        self.telemetry.reconnect_successes += 1;
        if let Some(link) = self.link_mut(id) {
            let reconnect = link.ever_connected;
            link.state = LinkState::Connected;
            link.ever_connected = true;
            link.backoff.reset();
            reconnect
        } else {
            false
        }
    }

    /// Marks a dial as failed and schedules the next one.
    pub fn dial_failed(&mut self, id: u32, now: Instant) {
        let mut backoff_ms = 0u64;
        if let Some(link) = self.link_mut(id) {
            link.state = match link.backoff.next_delay() {
                // The budget counts failures tolerated: once this failure
                // spends it, the link parks rather than scheduling a dial
                // that would never be allowed.
                Some(delay) if !link.backoff.exhausted() => {
                    backoff_ms = delay.as_millis() as u64;
                    LinkState::Backoff {
                        retry_at: now + delay,
                    }
                }
                _ => LinkState::Exhausted,
            };
        }
        self.telemetry.backoff_ms_total += backoff_ms;
    }

    /// Reports a connected link as broken (write error, EOF, CRC storm);
    /// the link re-enters backoff.
    pub fn connection_lost(&mut self, id: u32, now: Instant) {
        if let Some(link) = self.link_mut(id) {
            if matches!(link.state, LinkState::Banned) {
                return;
            }
            link.state = LinkState::Backoff { retry_at: now };
        }
        // The dial itself is counted when `due_dials` hands it out.
    }

    /// Control-plane partition: stop dialing `id` until unbanned.
    pub fn ban(&mut self, id: u32) {
        if let Some(link) = self.link_mut(id) {
            link.state = LinkState::Banned;
        }
    }

    /// Heals a ban (and any exhausted budget): the link becomes due for
    /// an immediate dial with a fresh backoff schedule.
    pub fn unban(&mut self, id: u32, now: Instant) {
        if let Some(link) = self.link_mut(id) {
            if matches!(link.state, LinkState::Banned | LinkState::Exhausted) {
                link.backoff.reset();
                link.state = LinkState::Backoff { retry_at: now };
            }
        }
    }

    /// The link's current state, if supervised.
    pub fn state(&self, id: u32) -> Option<LinkState> {
        self.links.iter().find(|l| l.id == id).map(|l| l.state)
    }

    /// Whether the link to `id` is up.
    pub fn is_connected(&self, id: u32) -> bool {
        matches!(self.state(id), Some(LinkState::Connected))
    }

    /// How many supervised links are up.
    pub fn connected_count(&self) -> usize {
        self.links
            .iter()
            .filter(|l| matches!(l.state, LinkState::Connected))
            .count()
    }

    /// True once per heartbeat interval: time to write keepalives on
    /// every connected link.
    pub fn heartbeat_due(&mut self, now: Instant) -> bool {
        match self.last_heartbeat {
            Some(at) if now.duration_since(at) < self.heartbeat_every => false,
            _ => {
                self.last_heartbeat = Some(now);
                true
            }
        }
    }

    /// Supervision counters accumulated so far.
    pub fn telemetry(&self) -> Telemetry {
        self.telemetry
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policy() -> BackoffPolicy {
        BackoffPolicy {
            base: Duration::from_millis(50),
            cap: Duration::from_secs(2),
            budget: 5,
        }
    }

    #[test]
    fn backoff_delays_grow_and_are_seed_deterministic() {
        let mut a = Backoff::new(policy(), 1234);
        let mut b = Backoff::new(policy(), 1234);
        let mut c = Backoff::new(policy(), 9999);
        let da: Vec<_> = std::iter::from_fn(|| a.next_delay()).collect();
        let db: Vec<_> = std::iter::from_fn(|| b.next_delay()).collect();
        let dc: Vec<_> = std::iter::from_fn(|| c.next_delay()).collect();
        assert_eq!(da, db, "same seed, same schedule");
        assert_ne!(da, dc, "different seed, different jitter");
        assert_eq!(da.len(), 5, "budget bounds the schedule");
        // Exponential shape: a later delay dominates an early one.
        assert!(da[3] > da[0]);
        // Jitter stays within the cap plus half-cap window.
        assert!(da.iter().all(|d| *d <= Duration::from_secs(3)));
    }

    #[test]
    fn budget_exhaustion_parks_the_link() {
        let t0 = Instant::now();
        let mut sup = Supervisor::new([7], policy(), 1, Duration::from_millis(100), t0);
        let mut now = t0;
        for _ in 0..5 {
            let due = sup.due_dials(now);
            assert_eq!(due, vec![7]);
            sup.dial_failed(7, now);
            now += Duration::from_secs(10); // past any backoff
        }
        assert_eq!(sup.state(7), Some(LinkState::Exhausted));
        assert!(sup.due_dials(now).is_empty(), "exhausted links stay quiet");
        assert_eq!(sup.telemetry().reconnect_attempts, 5);
        assert!(sup.telemetry().backoff_ms_total > 0);
        // A heal resets the budget.
        sup.unban(7, now);
        assert_eq!(sup.due_dials(now), vec![7]);
    }

    #[test]
    fn dials_respect_backoff_timing() {
        let t0 = Instant::now();
        let mut sup = Supervisor::new([1], policy(), 42, Duration::from_millis(100), t0);
        assert_eq!(sup.due_dials(t0), vec![1]);
        sup.dial_failed(1, t0);
        // Immediately after the failure nothing is due (base delay ≥ 25ms).
        assert!(sup.due_dials(t0).is_empty());
        assert!(sup.due_dials(t0 + Duration::from_millis(10)).is_empty());
        // Well past the cap the dial is certainly due.
        assert_eq!(sup.due_dials(t0 + Duration::from_secs(5)), vec![1]);
    }

    #[test]
    fn reconnect_is_flagged_only_after_a_previous_connection() {
        let t0 = Instant::now();
        let mut sup = Supervisor::new([2], policy(), 7, Duration::from_millis(100), t0);
        sup.due_dials(t0);
        assert!(!sup.dial_succeeded(2), "first connect is not a reconnect");
        assert!(sup.is_connected(2));
        sup.connection_lost(2, t0);
        assert!(!sup.is_connected(2));
        assert_eq!(sup.due_dials(t0), vec![2], "lost links redial immediately");
        assert!(sup.dial_succeeded(2), "now it is a reconnect");
    }

    #[test]
    fn bans_suppress_dials_until_unban() {
        let t0 = Instant::now();
        let mut sup = Supervisor::new([3, 4], policy(), 7, Duration::from_millis(100), t0);
        sup.ban(3);
        assert_eq!(sup.due_dials(t0), vec![4], "banned peer not dialed");
        sup.dial_succeeded(4);
        // Losing a banned link keeps it banned.
        sup.connection_lost(3, t0);
        assert_eq!(sup.state(3), Some(LinkState::Banned));
        sup.unban(3, t0);
        assert_eq!(sup.due_dials(t0), vec![3]);
        assert_eq!(sup.connected_count(), 1);
    }

    #[test]
    fn heartbeats_fire_on_the_cadence() {
        let t0 = Instant::now();
        let mut sup = Supervisor::new([1], policy(), 7, Duration::from_millis(100), t0);
        assert!(sup.heartbeat_due(t0), "first tick heartbeats");
        assert!(!sup.heartbeat_due(t0 + Duration::from_millis(50)));
        assert!(sup.heartbeat_due(t0 + Duration::from_millis(150)));
    }
}
