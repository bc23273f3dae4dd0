//! `paper_study` — the read-only analysis side of `experiments all` over
//! one generated history: Fig. 2's statistical consensus campaign, the
//! Fig. 3 sweep engine, Figs. 4-7, the appendix trends, the attack index
//! with a query stream, the wallet-splitting countermeasure, and an
//! archive write + linear read. Single-threaded sequential calls, so a
//! layer saves at most its self-time share. An executor or router change
//! must leave this workload flat.

use crate::calls::{self, Observation, Study};
use crate::harness::{Checks, Ctx, Layers, PassOut, Workload};

/// Payments in the analysed history at full size.
pub const PAYMENTS: usize = 50_000;
/// Fig. 2 rounds per collection period: `experiments all` runs 5 000
/// rounds next to 100 000 payments; the same 1:20 proportion here.
pub const FIG2_ROUNDS: u64 = 2_500;
/// Attack queries per pass.
pub const QUERIES: usize = 1_024;

pub struct PaperStudy;

pub struct Input {
    seed: u64,
    study: Study,
    payments: usize,
    rounds: u64,
    observations: Vec<Observation>,
}

/// What one pass computed — kept so the digest and the checks run outside
/// the timed section.
pub struct Output {
    fig2_valid: Vec<u64>,
    fig3: calls::Fig3Sweep,
    fig4: Vec<(calls::Currency, u64)>,
    fig5_medians: Vec<i128>,
    fig6: (calls::Histogram, calls::Histogram),
    fig7_hops: Vec<u64>,
    offers_total: u64,
    timeline: Vec<(u64, u64)>,
    users: [u64; 4],
    candidates: u64,
    countermeasure: Vec<calls::CountermeasureRow>,
    archive_len: usize,
    decoded_events: usize,
}

fn sizes_at(scale: f64) -> (usize, u64, usize) {
    (
        ((PAYMENTS as f64 * scale) as usize).max(200),
        ((FIG2_ROUNDS as f64 * scale) as u64).max(20),
        ((QUERIES as f64 * scale) as usize).max(16),
    )
}

impl Workload for PaperStudy {
    type Input = Input;
    type Output = Output;

    const NAME: &'static str = "paper_study";

    fn sizes(scale: f64) -> Vec<(&'static str, u64)> {
        let (payments, rounds, queries) = sizes_at(scale);
        vec![
            ("payments", payments as u64),
            ("fig2_rounds", rounds),
            ("queries", queries as u64),
        ]
    }

    fn setup(seed: u64, scale: f64) -> Input {
        let (payments, rounds, queries) = sizes_at(scale);
        let study = calls::study_from(calls::generate_pipelined(seed, payments, false));
        let observations = calls::observations(&study, queries);
        Input {
            seed,
            study,
            payments,
            rounds,
            observations,
        }
    }

    fn pass(input: &Input, ctx: &mut Ctx) -> Output {
        let study = &input.study;

        let fig2 = ctx.call("consensus.figure2", || {
            calls::figure2(study, input.rounds, input.seed)
        });
        ctx.note(
            "consensus.campaign_rounds_s",
            (input.rounds * fig2.len() as u64) as f64 / ctx.get("consensus.figure2").max(1e-9),
        );

        let fig3 = ctx.call("deanon.fig3_sweep_s", || calls::figure3_sweep(study));
        ctx.note("deanon.fig3_scan_s", fig3.stats.scan_secs);
        ctx.note("deanon.fig3_merge_s", fig3.stats.merge_secs);
        ctx.note("deanon.fig3_payments_s", fig3.stats.payments_per_sec());
        ctx.note("deanon.fig3_peak_classes", fig3.stats.peak_classes as f64);

        let fig4 = ctx.call("analytics.fig4_currencies", || calls::figure4(study));
        let fig5 = ctx.call("analytics.fig5_survival_s", || calls::figure5(study));
        let fig6 = ctx.call("analytics.fig6_paths", || calls::figure6(study));
        let fig7 = ctx.call("analytics.fig7_hubs_s", || calls::figure7(study));
        let offers = ctx.call("analytics.offers_s", || calls::offer_concentration(study));
        let timeline = ctx.call("analytics.timeline_s", || calls::timeline(study));
        let users = ctx.call("analytics.user_stats_s", || calls::user_stats(study));

        let index = ctx.call("deanon.index_build_s", || calls::attack_index(study));
        let candidates = ctx.call("deanon.queries", || {
            input
                .observations
                .iter()
                .map(|o| calls::deanon_query(&index, o) as u64)
                .sum::<u64>()
        });
        ctx.note(
            "deanon.query_ns",
            ctx.get("deanon.queries") * 1e9 / input.observations.len().max(1) as f64,
        );

        let countermeasure = ctx.call("deanon.countermeasure_s", || calls::countermeasure(study));

        let archive = ctx.call("store.write_archive", || {
            calls::store_write_archive(study.output())
        });
        let decoded = ctx.call("store.read_all", || calls::store_read_all(&archive));
        let read_secs = ctx.get("store.read_all").max(1e-9);
        ctx.note("store.decode_records_s", decoded.len() as f64 / read_secs);
        ctx.note("store.decode_mb_s", archive.len() as f64 / 1e6 / read_secs);

        Output {
            fig2_valid: fig2
                .iter()
                .flat_map(|(_, report)| report.rows.iter().map(|r| r.valid))
                .collect(),
            fig3,
            fig4,
            fig5_medians: fig5
                .iter()
                .map(|(_, curve)| curve.median().map_or(0, |m| m.raw()))
                .collect(),
            fig6,
            fig7_hops: fig7.rows.iter().map(|r| r.hop_count).collect(),
            offers_total: offers.total,
            timeline: timeline
                .iter()
                .map(|m| (m.payments, m.active_senders))
                .collect(),
            users: [
                users.total_accounts,
                users.active_accounts,
                users.senders,
                users.receivers,
            ],
            candidates,
            countermeasure,
            archive_len: archive.len(),
            decoded_events: decoded.len(),
        }
    }

    fn summarize(input: &Input, out: &Output) -> PassOut {
        let mut m: Vec<u8> = Vec::new();
        let mut put = |v: u64| m.extend_from_slice(&v.to_be_bytes());
        out.fig2_valid.iter().for_each(|&v| put(v));
        for row in &out.fig3.rows {
            put(row.strict.unique);
            put(row.strict.total);
            put(row.sender.unique);
            put(row.classes);
        }
        out.fig4.iter().for_each(|&(_, n)| put(n));
        out.fig5_medians.iter().for_each(|&v| put(v as u64));
        for (k, n) in out.fig6.0.iter().chain(&out.fig6.1) {
            put(*k as u64);
            put(*n);
        }
        out.fig7_hops.iter().for_each(|&v| put(v));
        put(out.offers_total);
        for &(p, s) in &out.timeline {
            put(p);
            put(s);
        }
        out.users.iter().for_each(|&v| put(v));
        put(out.candidates);
        for row in &out.countermeasure {
            put(row.k as u64);
            put(row.ig_before);
            put(row.ig_after);
            put(row.extra_trust_lines);
            put(row.relinked.to_bits());
        }
        put(out.archive_len as u64);
        put(out.decoded_events as u64);
        // A payment the Fig. 3 sweep did not analyse is a failed operation.
        let analysed = out.fig3.stats.payments;
        PassOut {
            ops: input.payments as u64,
            op_secs: None,
            failed: (input.payments as u64).abs_diff(analysed),
            digest: calls::digest(&m),
            extra: Vec::new(),
        }
    }

    fn check(input: &Input, out: &Output, checks: &mut Checks) {
        // The sweep engine's first row against the serial reference.
        let (label, serial) = calls::figure3_serial_row(&input.study, 0);
        let row = &out.fig3.rows[0];
        checks.expect(
            row.label == label
                && row.strict.unique == serial.unique
                && row.strict.total == serial.total,
            || {
                format!(
                    "Fig. 3 row {label}: engine {}/{} vs serial information_gain {}/{}",
                    row.strict.unique, row.strict.total, serial.unique, serial.total
                )
            },
        );
        let events = input.study.output().events.len();
        checks.expect(out.decoded_events == events, || {
            format!(
                "archive re-decodes to {} records, history holds {events}",
                out.decoded_events
            )
        });
        checks.expect(out.candidates >= input.observations.len() as u64, || {
            format!(
                "{} attack queries found only {} candidates; each observes an indexed payment",
                input.observations.len(),
                out.candidates
            )
        });
    }

    fn probes(_input: &Input, _out: Output, _l: &mut Layers) {
        // Every layer this workload exercises is called separately in the
        // pass, so its spans and the product's own sweep statistics carry
        // all of its per-layer figures.
    }
}
