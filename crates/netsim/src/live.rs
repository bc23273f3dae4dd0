//! Lowering [`FaultPlan`]s onto live operating-system processes.
//!
//! The in-process simulator interprets a [`FaultPlan`] as virtual-time
//! bookkeeping; the live cluster harness interprets the *same plan* as OS
//! actions against real validator processes: `CrashAt` becomes `kill -9`,
//! `RestartAt` a respawn with identical arguments, `PartitionAt`/`HealAt`
//! become socket-level connection bans pushed over the control plane.
//! Sharing the plan type keeps the two fault-injection backends in lock
//! step — a schedule shrunk by `ripple-check` against the simulator can be
//! replayed, scaled to wall-clock, against real sockets.
//!
//! Window and permanent events (`LossBurst`, `DelaySpike`, `ClockSkew`)
//! have no faithful OS-level equivalent without privileged traffic
//! shaping, so [`lower`] reports them in [`LivePlan::skipped`] instead of
//! silently dropping them.

use crate::faults::{FaultEvent, FaultPlan};
use crate::network::NodeId;
use crate::sim::SimTime;

/// One OS-level action against a running cluster.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LiveAction {
    /// `kill -9` the node's process.
    Kill(NodeId),
    /// Respawn the node's process with its original arguments.
    Restart(NodeId),
    /// Ban each side's peers on the other side (socket-level partition).
    Partition {
        /// One side of the cut.
        left: Vec<NodeId>,
        /// The other side of the cut.
        right: Vec<NodeId>,
    },
    /// Lift every ban currently in force.
    Heal,
}

/// A [`FaultPlan`] scaled to wall-clock milliseconds and lowered to
/// process-level actions, ready for a cluster harness to execute.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LivePlan {
    /// Time-ordered `(wall_ms_after_epoch, action)` pairs.
    pub actions: Vec<(u64, LiveAction)>,
    /// Human-readable notes for events with no live equivalent.
    pub skipped: Vec<String>,
    /// Wall-clock milliseconds after the epoch at which the last
    /// disturbance clears (the live analogue of `FaultPlan::settles_at`).
    pub settles_ms: u64,
}

/// Scales a virtual-time instant to wall-clock milliseconds after the
/// cluster epoch. `sim_round` is the simulator's round length, the unit
/// the plan was authored against; `live_round_ms` is the real cluster's.
fn scale(at: SimTime, sim_round: SimTime, live_round_ms: u64) -> u64 {
    let sim = sim_round.as_millis().max(1);
    at.as_millis().saturating_mul(live_round_ms) / sim
}

/// Lowers a [`FaultPlan`] into a [`LivePlan`].
///
/// Discrete events map one-to-one onto OS actions with their fire times
/// rescaled from the simulator's round length to the live cluster's;
/// window and permanent events are recorded in `skipped`.
pub fn lower(plan: &FaultPlan, sim_round: SimTime, live_round_ms: u64) -> LivePlan {
    let mut live = LivePlan::default();
    for event in plan.events() {
        match event {
            FaultEvent::CrashAt { at, node } => {
                let t = scale(*at, sim_round, live_round_ms);
                live.actions.push((t, LiveAction::Kill(*node)));
            }
            FaultEvent::RestartAt { at, node } => {
                let t = scale(*at, sim_round, live_round_ms);
                live.actions.push((t, LiveAction::Restart(*node)));
            }
            FaultEvent::PartitionAt { at, left, right } => {
                let t = scale(*at, sim_round, live_round_ms);
                live.actions.push((
                    t,
                    LiveAction::Partition {
                        left: left.clone(),
                        right: right.clone(),
                    },
                ));
            }
            FaultEvent::HealAt { at } => {
                let t = scale(*at, sim_round, live_round_ms);
                live.actions.push((t, LiveAction::Heal));
            }
            FaultEvent::LossBurst { from, until, loss } => live.skipped.push(format!(
                "loss_burst {}..{} p={loss} (no unprivileged OS equivalent)",
                from.as_millis(),
                until.as_millis()
            )),
            FaultEvent::DelaySpike { from, until, extra } => live.skipped.push(format!(
                "delay_spike {}..{} +{}ms (no unprivileged OS equivalent)",
                from.as_millis(),
                until.as_millis(),
                extra.as_millis()
            )),
            FaultEvent::ClockSkew { node, offset } => live.skipped.push(format!(
                "clock_skew node={} +{}ms (live nodes share the host clock)",
                node.0,
                offset.as_millis()
            )),
        }
    }
    live.actions.sort_by_key(|&(t, _)| t);
    live.settles_ms = scale(plan.settles_at(), sim_round, live_round_ms);
    live
}

/// Parses a textual fault schedule (one event per line, `#` comments):
///
/// ```text
/// partition_at 1000 0,1 2,3,4
/// heal_at 3000
/// crash_at 1500 2
/// restart_at 4000 2
/// loss_burst 500 900 0.3
/// delay_spike 500 900 40
/// clock_skew 1 80
/// ```
///
/// Times are virtual milliseconds (same unit the simulator uses), so one
/// plan file drives both backends.
///
/// # Errors
///
/// A message naming the offending line on any syntax error, on a loss or
/// delay window whose start is not before its end, and on a loss
/// probability outside `[0, 1]`.
pub fn parse_plan(text: &str) -> Result<FaultPlan, String> {
    let mut plan = FaultPlan::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let mut parts = line.split_whitespace();
        let verb = parts.next().unwrap_or("");
        let rest: Vec<&str> = parts.collect();
        let err = |what: &str| format!("line {}: {what}: {raw:?}", lineno + 1);
        let ms = |s: &str| -> Result<SimTime, String> {
            s.parse::<u64>()
                .map(SimTime::from_millis)
                .map_err(|_| err("bad time"))
        };
        let node = |s: &str| -> Result<NodeId, String> {
            s.parse::<usize>()
                .map(NodeId)
                .map_err(|_| err("bad node id"))
        };
        let group = |s: &str| -> Result<Vec<NodeId>, String> { s.split(',').map(node).collect() };
        // `FaultPlan`'s window events assert a non-empty window; a plan
        // file is untrusted input, so check here and report the line.
        let window = |from: &str, until: &str| -> Result<(SimTime, SimTime), String> {
            let (from, until) = (ms(from)?, ms(until)?);
            if from < until {
                Ok((from, until))
            } else {
                Err(err("empty window (from must be before until)"))
            }
        };
        plan = match (verb, rest.as_slice()) {
            ("partition_at", [at, left, right]) => {
                plan.partition_at(ms(at)?, group(left)?, group(right)?)
            }
            ("heal_at", [at]) => plan.heal_at(ms(at)?),
            ("crash_at", [at, n]) => plan.crash_at(ms(at)?, node(n)?),
            ("restart_at", [at, n]) => plan.restart_at(ms(at)?, node(n)?),
            ("loss_burst", [from, until, loss]) => {
                let p = loss
                    .parse::<f64>()
                    .ok()
                    .filter(|p| (0.0..=1.0).contains(p))
                    .ok_or_else(|| err("bad probability (must be in [0, 1])"))?;
                let (from, until) = window(from, until)?;
                plan.loss_burst(from, until, p)
            }
            ("delay_spike", [from, until, extra]) => {
                let (from, until) = window(from, until)?;
                plan.delay_spike(from, until, ms(extra)?)
            }
            ("clock_skew", [n, offset]) => plan.clock_skew(node(n)?, ms(offset)?),
            _ => return Err(err("unknown or malformed event")),
        };
    }
    Ok(plan)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(t: u64) -> SimTime {
        SimTime::from_millis(t)
    }

    #[test]
    fn discrete_events_lower_to_os_actions_in_time_order() {
        let plan = FaultPlan::new()
            .restart_at(ms(400), NodeId(2))
            .crash_at(ms(150), NodeId(2))
            .partition_at(ms(600), vec![NodeId(0)], vec![NodeId(1), NodeId(2)])
            .heal_at(ms(800));
        // Simulator rounds of 100ms lowered onto 500ms live rounds: ×5.
        let live = lower(&plan, ms(100), 500);
        assert_eq!(
            live.actions,
            vec![
                (750, LiveAction::Kill(NodeId(2))),
                (2_000, LiveAction::Restart(NodeId(2))),
                (
                    3_000,
                    LiveAction::Partition {
                        left: vec![NodeId(0)],
                        right: vec![NodeId(1), NodeId(2)],
                    }
                ),
                (4_000, LiveAction::Heal),
            ]
        );
        assert!(live.skipped.is_empty());
        assert_eq!(live.settles_ms, 4_000);
    }

    #[test]
    fn window_events_are_reported_not_silently_dropped() {
        let plan = FaultPlan::new()
            .loss_burst(ms(100), ms(200), 0.5)
            .delay_spike(ms(100), ms(200), ms(40))
            .clock_skew(NodeId(1), ms(80))
            .crash_at(ms(50), NodeId(0));
        let live = lower(&plan, ms(100), 100);
        assert_eq!(live.actions.len(), 1);
        assert_eq!(live.skipped.len(), 3);
        assert!(live.skipped[0].contains("loss_burst"));
        assert!(live.skipped[1].contains("delay_spike"));
        assert!(live.skipped[2].contains("clock_skew"));
    }

    #[test]
    fn parse_round_trips_the_documented_grammar() {
        let text = "\
# comment line
partition_at 1000 0,1 2,3,4
heal_at 3000   # trailing comment
crash_at 1500 2

restart_at 4000 2
loss_burst 500 900 0.3
delay_spike 500 900 40
clock_skew 1 80
";
        let plan = parse_plan(text).expect("parse");
        assert_eq!(plan.events().len(), 7);
        let live = lower(&plan, ms(100), 100);
        assert_eq!(live.actions.len(), 4);
        assert_eq!(live.skipped.len(), 3);
    }

    #[test]
    fn parse_rejects_garbage_with_line_numbers() {
        let err = parse_plan("crash_at soon 2").unwrap_err();
        assert!(err.contains("line 1"), "{err}");
        let err = parse_plan("heal_at 10\nfrobnicate 1 2 3").unwrap_err();
        assert!(err.contains("line 2"), "{err}");
        let err = parse_plan("partition_at 10 0,x 1").unwrap_err();
        assert!(err.contains("bad node id"), "{err}");
        // Inputs `FaultPlan`'s window asserts would abort on.
        for (plan, line, what) in [
            ("loss_burst 900 500 0.3", "line 1", "empty window"),
            (
                "heal_at 10\ndelay_spike 500 500 40",
                "line 2",
                "empty window",
            ),
            ("loss_burst 0 10 1.5", "line 1", "bad probability"),
            ("loss_burst 0 10 NaN", "line 1", "bad probability"),
        ] {
            let err = parse_plan(plan).unwrap_err();
            assert!(err.contains(line) && err.contains(what), "{plan:?}: {err}");
        }
    }

    #[test]
    fn scaling_is_stable_when_round_lengths_match() {
        let plan = FaultPlan::new().crash_at(ms(777), NodeId(3));
        let live = lower(&plan, ms(250), 250);
        assert_eq!(live.actions, vec![(777, LiveAction::Kill(NodeId(3)))]);
    }
}
