//! `consensus_sim` — the §IV substrate at message level, no history.
//! A steady phase: one `RoundEngine`, 20 reliable validators, 50-tx
//! positions, under the engine's default simulated latency (20 ms + up to
//! 30 ms jitter per message; 500 ms iteration deadline, so a round spans
//! 2.5 s of virtual time). Then a fault phase: a `ChaosCampaign` over 20
//! validators under `FaultPlan::randomized(seed, 20, horizon)` — one
//! partition-and-heal, one crash-and-restart, one loss burst at
//! seed-derived times. Every outcome goes through an `InvariantChecker`.
//! Chase and MacBrough's analysis is why both the injected delay and the
//! fault schedule are stated: a round-time figure means nothing without
//! them.
//!
//! It shares no code with the history stack, so it is the control for
//! every ledger/store change. The live `ripple-node` cluster is left out
//! on purpose: its wall-clock rounds measure the timer.

use std::collections::BTreeSet;
use std::time::Instant;

use crate::calls::{self, ChaosReport, RoundsReport};
use crate::harness::{Checks, Ctx, Layers, PassOut, Workload};
use crate::probe::{per_op_ns, per_sec};
use crate::stats::percentile;

/// Validators in both phases.
pub const VALIDATORS: usize = 20;
/// Transactions in each validator's initial position.
pub const POSITION_TXS: u64 = 50;
/// Fault-free rounds per pass at full size.
pub const STEADY_ROUNDS: u64 = 600;
/// Chaos-campaign rounds per pass at full size.
pub const CHAOS_ROUNDS: u64 = 200;

pub struct ConsensusSim;

pub struct Input {
    seed: u64,
    positions: Vec<Vec<BTreeSet<u64>>>,
    chaos_rounds: u64,
}

pub struct Output {
    steady: RoundsReport,
    chaos: ChaosReport,
}

fn sizes_at(scale: f64) -> (u64, u64) {
    (
        ((STEADY_ROUNDS as f64 * scale) as u64).max(6),
        ((CHAOS_ROUNDS as f64 * scale) as u64).max(10),
    )
}

impl Workload for ConsensusSim {
    type Input = Input;
    type Output = Output;

    const NAME: &'static str = "consensus_sim";

    fn sizes(scale: f64) -> Vec<(&'static str, u64)> {
        let (steady, chaos) = sizes_at(scale);
        vec![
            ("validators", VALIDATORS as u64),
            ("position_txs", POSITION_TXS),
            ("steady_rounds", steady),
            ("chaos_rounds", chaos),
        ]
    }

    fn setup(seed: u64, scale: f64) -> Input {
        let (steady, chaos_rounds) = sizes_at(scale);
        Input {
            seed,
            positions: calls::positions(VALIDATORS, steady, POSITION_TXS),
            chaos_rounds,
        }
    }

    fn pass(input: &Input, ctx: &mut Ctx) -> Output {
        let steady = ctx.call("consensus.steady_rounds", || {
            calls::run_rounds(
                calls::reliable_validators(VALIDATORS),
                &input.positions,
                input.seed,
                true,
            )
        });
        let steady_secs = ctx.get("consensus.steady_rounds").max(1e-9);
        let mut round_ns = steady.round_ns.clone();
        round_ns.sort_unstable();
        ctx.note(
            "consensus.round_us_n20",
            percentile(&round_ns, 0.5) as f64 / 1e3,
        );
        ctx.note(
            "consensus.msgs_per_round",
            steady.sent as f64 / steady.rounds.max(1) as f64,
        );
        ctx.note(
            "netsim.events_s",
            (steady.sent - steady.dropped) as f64 / steady_secs,
        );

        let chaos = ctx.call("consensus.chaos_campaign", || {
            calls::run_chaos(VALIDATORS, input.chaos_rounds, input.seed)
        });
        let chaos_secs = ctx.get("consensus.chaos_campaign").max(1e-9);
        ctx.note("consensus.chaos_rounds_s", chaos.rounds as f64 / chaos_secs);
        ctx.note(
            "consensus.committed_share",
            (steady.committed + chaos.committed) as f64
                / (steady.rounds + chaos.rounds).max(1) as f64,
        );
        ctx.note("consensus.stall_rounds", chaos.stall_rounds as f64);
        ctx.note(
            "consensus.recovery_rounds_max",
            chaos.recovery_rounds as f64,
        );
        ctx.note(
            "consensus.fork_violations",
            (steady.fork_violations + chaos.fork_violations) as f64,
        );
        // Fault-free phase only: the campaign reports drops, not sends.
        ctx.note(
            "netsim.delivered_share",
            1.0 - steady.dropped as f64 / steady.sent.max(1) as f64,
        );
        Output { steady, chaos }
    }

    fn summarize(input: &Input, out: &Output) -> PassOut {
        let mut m = out.steady.pages.clone();
        m.extend_from_slice(out.chaos.digest.as_bytes());
        m.extend_from_slice(&out.chaos.committed.to_be_bytes());
        m.extend_from_slice(&out.chaos.dropped.to_be_bytes());
        let rounds = input.positions.len() as u64 + input.chaos_rounds;
        let ran = out.steady.observed + out.chaos.rounds;
        PassOut {
            ops: rounds,
            op_secs: None,
            failed: out.steady.errors
                + out.steady.fork_violations
                + out.chaos.fork_violations
                + rounds.saturating_sub(ran),
            digest: calls::digest(&m),
            extra: Vec::new(),
        }
    }

    fn check(input: &Input, out: &Output, checks: &mut Checks) {
        let forks = out.steady.fork_violations + out.chaos.fork_violations;
        checks.expect(forks == 0, || format!("{forks} fork violations"));
        checks.expect(
            out.steady.observed == input.positions.len() as u64
                && out.chaos.rounds == input.chaos_rounds,
            || {
                format!(
                    "InvariantChecker observed {} of {} steady and {} of {} chaos rounds",
                    out.steady.observed,
                    input.positions.len(),
                    out.chaos.rounds,
                    input.chaos_rounds
                )
            },
        );
        // Reliable validators on a fault-free network commit every round.
        checks.expect(out.steady.committed == out.steady.rounds, || {
            format!(
                "{} of {} fault-free rounds committed",
                out.steady.committed, out.steady.rounds
            )
        });
    }

    fn probes(input: &Input, _out: Output, l: &mut Layers) {
        // Round cost against validator count (n = 20 is the pass itself).
        for (metric, n, rounds) in [
            ("consensus.round_us_n5", 5usize, 400u64),
            ("consensus.round_us_n35", 35, 60),
        ] {
            let rounds = rounds.min(input.positions.len() as u64 * 2).max(4);
            let positions = calls::positions(n, rounds, POSITION_TXS);
            let report =
                calls::run_rounds(calls::reliable_validators(n), &positions, input.seed, true);
            let mut ns = report.round_ns;
            ns.sort_unstable();
            l.set(metric, percentile(&ns, 0.5) as f64 / 1e3);
        }

        // node: the live transport's codec, without the live cluster.
        let msgs: Vec<_> = (0..2_000u64).map(calls::node_proposal).collect();
        let mut stream = Vec::new();
        let started = Instant::now();
        calls::node_encode_frames(&msgs, &mut stream);
        l.set(
            "node.frame_encode_mb_s",
            stream.len() as f64 / 1e6 / started.elapsed().as_secs_f64().max(1e-9),
        );
        let started = Instant::now();
        let decoded = calls::node_decode_frames(&stream);
        let secs = started.elapsed().as_secs_f64();
        assert_eq!(
            decoded,
            msgs.len() as u64,
            "frame stream did not decode back"
        );
        l.set("node.frame_decode_frames_s", per_sec(decoded, secs));
        let started = Instant::now();
        for msg in &msgs {
            assert!(calls::node_wire_roundtrip(msg));
        }
        l.set(
            "node.wire_roundtrip_ns",
            per_op_ns(msgs.len() as u64, started.elapsed().as_secs_f64()),
        );
    }
}
