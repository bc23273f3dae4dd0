//! `history_build` — the write path. `SynthConfig::default()` through
//! `Generator::run_pipelined` with the archive on and product-default
//! worker counts: synth script/exec/sink -> `LedgerState::apply` -> store
//! encode -> crypto. Query, deanon, paths and consensus do nothing here,
//! so a change to those layers must leave this workload flat.
//!
//! (The generator applies scripted paths through `LedgerState::apply`; it
//! does not call `PaymentEngine::pay`, so the router-under-mutation cost
//! shows on `credit_probe`'s Table II replay, not here.)

use std::time::Instant;

use crate::calls::{self, PipelineRun};
use crate::harness::{Checks, Ctx, Layers, PassOut, Workload};
use crate::probe::{per_op_ns, per_sec, time_for};

/// Payments per timed pass at full size.
pub const PAYMENTS: usize = 300_000;

pub struct HistoryBuild;

pub struct Input {
    seed: u64,
    payments: usize,
}

fn scaled(scale: f64) -> usize {
    ((PAYMENTS as f64 * scale) as usize).max(200)
}

impl Workload for HistoryBuild {
    type Input = Input;
    type Output = PipelineRun;

    const NAME: &'static str = "history_build";

    fn sizes(scale: f64) -> Vec<(&'static str, u64)> {
        vec![("payments", scaled(scale) as u64)]
    }

    fn setup(seed: u64, scale: f64) -> Input {
        Input {
            seed,
            payments: scaled(scale),
        }
    }

    fn pass(input: &Input, ctx: &mut Ctx) -> PipelineRun {
        let run = ctx.call("synth.run_pipelined", || {
            calls::generate_pipelined(input.seed, input.payments, true)
        });
        let b = &run.bench;
        ctx.note("synth.script_busy_s", b.script_secs);
        ctx.note("synth.exec_busy_s", b.exec_secs);
        ctx.note("synth.sink_busy_s", b.sink_secs);
        ctx.note(
            "synth.exec_busy_share",
            b.exec_secs / b.total_secs.max(1e-9),
        );
        ctx.note(
            "synth.events_per_payment",
            b.events as f64 / b.payments.max(1) as f64,
        );
        ctx.note(
            "synth.conflict_share",
            b.conflicts as f64 / b.payments.max(1) as f64,
        );
        run
    }

    fn summarize(input: &Input, run: &PipelineRun) -> PassOut {
        let archive = run.archive.as_deref().unwrap_or(&[]);
        let mut material = Vec::new();
        material.extend_from_slice(&(run.output.events.len() as u64).to_be_bytes());
        material.extend_from_slice(&(archive.len() as u64).to_be_bytes());
        // The CRC covers every archive byte; SHA-512 over ~140 MB per pass
        // would cost more than the digest is worth.
        material.extend_from_slice(&calls::store_crc32(archive).to_be_bytes());
        material.extend_from_slice(&(run.output.final_state.account_count() as u64).to_be_bytes());
        material.extend_from_slice(
            &run.output
                .final_state
                .total_burned()
                .as_drops()
                .to_be_bytes(),
        );
        let generated = calls::payment_count(&run.output);
        PassOut {
            ops: input.payments as u64,
            op_secs: None,
            failed: input.payments.abs_diff(generated) as u64,
            digest: calls::digest(&material),
            extra: vec![(
                "archive_bytes_per_payment",
                archive.len() as f64 / input.payments as f64,
            )],
        }
    }

    fn check(_input: &Input, run: &PipelineRun, checks: &mut Checks) {
        let archive = run.archive.as_deref().unwrap_or(&[]);
        let decoded = calls::store_read_all(archive);
        checks.expect(decoded.len() == run.bench.events, || {
            format!(
                "archive re-decodes to {} records, bench.events says {}",
                decoded.len(),
                run.bench.events
            )
        });
        checks.expect(decoded == run.output.events, || {
            "archive does not re-decode to the generated events".to_string()
        });
    }

    fn probes(input: &Input, run: PipelineRun, l: &mut Layers) {
        let archive = run.archive.as_deref().unwrap_or(&[]);
        let events = &run.output.events;
        let state = &run.output.final_state;
        l.set(
            "store.archive_bytes_per_event",
            archive.len() as f64 / events.len().max(1) as f64,
        );

        // crypto: the hash behind every tx id, and account-id derivation.
        let block = vec![0xABu8; 64 * 1024];
        let (n, secs) = time_for(0.2, || {
            std::hint::black_box(calls::digest(std::hint::black_box(&block)));
        });
        l.set(
            "crypto.sha512_half_mb_s",
            n as f64 * block.len() as f64 / 1e6 / secs,
        );
        let mut i = 0u64;
        let (n, secs) = time_for(0.2, || {
            i += 1;
            std::hint::black_box(calls::account_id_from_seed(&i.to_be_bytes()));
        });
        l.set("crypto.account_id_ns", per_op_ns(n, secs));

        // ledger: `apply` by transaction kind, on a clone of the pass's
        // own final state, towards accounts sampled from it.
        let accounts = calls::ledger_accounts(state);
        let sample: Vec<_> = accounts
            .iter()
            .step_by((accounts.len() / 2_000).max(1))
            .copied()
            .collect();
        let started = Instant::now();
        let mut scratch = calls::ledger_clone(state);
        l.set(
            "ledger.state_clone_ms",
            started.elapsed().as_secs_f64() * 1e3,
        );
        let probe = calls::ledger_probe_account(&mut scratch, "benchmark-probe");
        for (metric, txs) in [
            (
                "ledger.apply_xrp_tx_s",
                calls::ledger_xrp_txs(&scratch, &probe, &sample),
            ),
            (
                "ledger.apply_trust_tx_s",
                calls::ledger_trust_txs(&scratch, &probe, &sample),
            ),
            (
                "ledger.apply_offer_tx_s",
                calls::ledger_offer_txs(&scratch, &probe, sample.len() as u32),
            ),
        ] {
            let mut target = calls::ledger_clone(&scratch);
            let started = Instant::now();
            let rejected = calls::ledger_apply_all(&mut target, &txs);
            let secs = started.elapsed().as_secs_f64();
            assert_eq!(
                rejected, 0,
                "{metric}: the ledger rejected a probe transaction"
            );
            l.set(metric, per_sec(txs.len() as u64, secs));
        }
        // One IOU hop: the probe account extends trust to a second probe
        // account, which then ripples single units back and forth.
        let peer = calls::ledger_probe_account(&mut scratch, "benchmark-peer");
        calls::ledger_set_trust(&mut scratch, probe.id, peer.id);
        calls::ledger_set_trust(&mut scratch, peer.id, probe.id);
        let mut flip = false;
        let (n, secs) = time_for(0.2, || {
            flip = !flip;
            let (from, to) = if flip {
                (probe.id, peer.id)
            } else {
                (peer.id, probe.id)
            };
            assert!(calls::ledger_ripple_hop(&mut scratch, from, to));
        });
        l.set("ledger.ripple_hop_ns", per_op_ns(n, secs));

        // orderbook
        let (n, secs) = time_for(0.2, || assert!(calls::orderbook_fill()));
        l.set("orderbook.fill_ns", per_op_ns(n, secs));
        let started = Instant::now();
        std::hint::black_box(calls::orderbook_from_ledger(state));
        l.set(
            "orderbook.from_ledger_ms",
            started.elapsed().as_secs_f64() * 1e3,
        );

        // synth: the original serial generator, at a tenth of the pass.
        let serial_payments = (input.payments / 10).max(200);
        let started = Instant::now();
        let serial = calls::generate_serial(input.seed, serial_payments);
        let secs = started.elapsed().as_secs_f64();
        std::hint::black_box(serial.events.len());
        l.set(
            "synth.serial_run_tx_s",
            per_sec(serial_payments as u64, secs),
        );

        // store: frame checksum and encode over a prefix of the pass's
        // own events (decode is `paper_study`'s and `archive_serve`'s).
        let crc_bytes = &archive[..archive.len().min(32 << 20)];
        let started = Instant::now();
        std::hint::black_box(calls::store_crc32(crc_bytes));
        l.set(
            "store.crc32_mb_s",
            crc_bytes.len() as f64 / 1e6 / started.elapsed().as_secs_f64().max(1e-9),
        );
        let prefix = &events[..events.len().min(200_000)];
        let started = Instant::now();
        let encoded = calls::store_encode(prefix, archive.len() / 4);
        let secs = started.elapsed().as_secs_f64();
        l.set("store.encode_records_s", per_sec(prefix.len() as u64, secs));
        l.set(
            "store.encode_mb_s",
            encoded.len() as f64 / 1e6 / secs.max(1e-9),
        );

        // obs: what the instrumentation itself costs, off and on.
        let (n, secs) = time_for(0.1, calls::obs_span);
        l.set("obs.span_disabled_ns", per_op_ns(n, secs));
        calls::obs_metrics_enabled(true);
        let (n, secs) = time_for(0.1, calls::obs_counter_add);
        l.set("obs.counter_add_ns", per_op_ns(n, secs));
        calls::obs_trace_enabled(true);
        let (n, secs) = time_for(0.1, calls::obs_span);
        l.set("obs.span_ns", per_op_ns(n, secs));
        calls::obs_trace_enabled(false);
        // The <=10% generation gate: whole passes with the metrics
        // registry off-on-on-off, so whatever drifts over the sequence
        // falls on both sides alike. The last timed pass's ~1 GB output is
        // dropped first; beside it these passes would measure the heap.
        drop(run);
        let rate = |metrics_on: bool| {
            calls::obs_metrics_enabled(metrics_on);
            let started = Instant::now();
            let run = calls::generate_pipelined(input.seed, input.payments, true);
            let secs = started.elapsed().as_secs_f64();
            calls::obs_metrics_enabled(false);
            std::hint::black_box(run.bench.events);
            per_sec(input.payments as u64, secs)
        };
        let (off_a, on_a, on_b, off_b) = (rate(false), rate(true), rate(true), rate(false));
        l.set(
            "obs.metrics_on_overhead_pct",
            100.0 * (1.0 - (on_a + on_b) / (off_a + off_b)),
        );
    }
}
