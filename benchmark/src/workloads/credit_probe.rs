//! `credit_probe` — the credit graph used read-mostly: `Study::table2()`
//! (the Market-Maker-removal replay, `PaymentEngine::pay` on a ledger
//! every delivered payment mutates), the liquidity suite (probe streams
//! re-run after each mutation wave), then a fresh `Router` answering one
//! probe stream twice on the frozen final state — a miss pass, then a hit
//! pass. Probe methodology after Moreno-Sanchez et al., *Mind Your
//! Credit*. The same `ripple-paths` code `history_build` never calls, so
//! a cache or adjacency change shows here alone.

use crate::calls::{self, LiquidityOutcome, MmRemovalReport, Study, Value};
use crate::harness::{Checks, Ctx, Layers, PassOut, Workload};
use crate::probe::{per_op_ns, per_sec};
use std::time::Instant;

/// Payments in the probed history at full size (default cast: the graph
/// is the cast's, the payment count sets the Table II replay window).
pub const PAYMENTS: usize = 10_000;
/// Liquidity-suite probes (the suite re-runs them after every wave).
pub const SUITE_PROBES: usize = 96;
/// Probes in the frozen-state router stream.
pub const STREAM_PROBES: usize = 512;

pub struct CreditProbe;

pub struct Input {
    seed: u64,
    study: Study,
    suite_probes: usize,
    stream: Vec<calls::PaymentProbe>,
}

pub struct Output {
    table2: MmRemovalReport,
    liquidity: LiquidityOutcome,
    miss: Vec<Value>,
    hit: Vec<Value>,
    router: (u64, u64, u64, u64),
}

fn sizes_at(scale: f64) -> (usize, usize, usize) {
    (
        ((PAYMENTS as f64 * scale) as usize).max(400),
        ((SUITE_PROBES as f64 * scale) as usize).max(8),
        ((STREAM_PROBES as f64 * scale) as usize).max(16),
    )
}

/// Routed requests, counted from the reports: the Table II window, every
/// probe of the baseline and of each campaign wave, the exit-wave replay
/// windows, and the router stream's two passes.
fn routed_requests(out: &Output) -> u64 {
    let report = &out.liquidity.report;
    let probes = report.probe_summary.probes;
    let waves = (report.insolvency_cascade.len() + report.trust_drain.len()) as u64;
    let exits: u64 = report
        .mm_exit_waves
        .iter()
        .map(|w| w.cross_submitted + w.single_submitted)
        .sum();
    let holders: u64 = report.gateways.iter().map(|g| g.holders_probed).sum();
    out.table2.stats.total_submitted()
        + probes * (1 + waves)
        + holders
        + exits
        + (out.miss.len() + out.hit.len()) as u64
}

impl Workload for CreditProbe {
    type Input = Input;
    type Output = Output;

    const NAME: &'static str = "credit_probe";

    fn sizes(scale: f64) -> Vec<(&'static str, u64)> {
        let (payments, suite, stream) = sizes_at(scale);
        vec![
            ("payments", payments as u64),
            ("suite_probes", suite as u64),
            ("stream_probes", stream as u64),
        ]
    }

    fn setup(seed: u64, scale: f64) -> Input {
        let (payments, suite_probes, stream) = sizes_at(scale);
        let study = calls::study_from(calls::generate_pipelined(seed, payments, false));
        let stream = calls::probe_stream(study.output(), seed, stream);
        Input {
            seed,
            study,
            suite_probes,
            stream,
        }
    }

    fn pass(input: &Input, ctx: &mut Ctx) -> Output {
        let study = &input.study;
        let state = &study.output().final_state;

        let table2 = ctx.call("analytics.table2_replay_s", || calls::table2(study));
        let replay_secs = ctx.get("analytics.table2_replay_s").max(1e-9);
        ctx.note(
            "paths.replay_tx_s",
            table2.stats.total_submitted() as f64 / replay_secs,
        );

        let liquidity = ctx.call("core.liquidity_s", || {
            calls::liquidity(study.output(), input.seed, input.suite_probes)
        });
        let total = ctx.get("core.liquidity_s");
        let baseline = liquidity.perf.router_secs;
        ctx.note("core.liquidity_baseline_probes_s", baseline);
        ctx.note("core.liquidity_campaign_s", total - baseline);

        let mut router = calls::router_new();
        let miss = ctx.call("paths.stream_miss_pass", || {
            input
                .stream
                .iter()
                .map(|p| calls::router_deliverable(&mut router, state, p))
                .collect::<Vec<_>>()
        });
        let hit = ctx.call("paths.stream_hit_pass", || {
            input
                .stream
                .iter()
                .map(|p| calls::router_deliverable(&mut router, state, p))
                .collect::<Vec<_>>()
        });
        let router = calls::router_stats(&router);
        let suite = liquidity.perf.router_stats;
        let queries = (router.0 + suite.queries).max(1);
        ctx.note(
            "paths.router_hit_share",
            (router.1 + suite.hits) as f64 / queries as f64,
        );
        ctx.note(
            "paths.router_invalidations",
            (router.3 + suite.invalidations) as f64,
        );

        Output {
            table2,
            liquidity,
            miss,
            hit,
            router,
        }
    }

    fn summarize(_input: &Input, out: &Output) -> PassOut {
        let mut m: Vec<u8> = Vec::new();
        let stats = &out.table2.stats;
        for v in [
            out.table2.offers_stripped as u64,
            out.table2.makers_severed as u64,
            stats.cross_submitted,
            stats.cross_delivered,
            stats.single_submitted,
            stats.single_delivered,
        ] {
            m.extend_from_slice(&v.to_be_bytes());
        }
        // The report's own JSON is its byte-stable form (the `perf`
        // section, the only wall-clock part, is not in it).
        m.extend_from_slice(out.liquidity.report.to_json().as_bytes());
        for v in &out.miss {
            m.extend_from_slice(&v.raw().to_be_bytes());
        }
        PassOut {
            ops: routed_requests(out),
            op_secs: None,
            failed: 0,
            digest: calls::digest(&m),
            extra: Vec::new(),
        }
    }

    fn check(input: &Input, out: &Output, checks: &mut Checks) {
        // A cached answer must equal the answer that filled the cache.
        let differing = out
            .miss
            .iter()
            .zip(&out.hit)
            .filter(|(a, b)| a != b)
            .count();
        checks.expect(differing == 0, || {
            format!("{differing} probes changed their deliverable amount between miss and hit pass")
        });
        // The second pass over a frozen state is all hits.
        let (queries, hits, _, invalidations) = out.router;
        checks.expect(
            queries == 2 * input.stream.len() as u64 && hits >= input.stream.len() as u64,
            || format!("router stream: {queries} queries, {hits} hits over two passes"),
        );
        checks.expect(invalidations == 0, || {
            format!("{invalidations} invalidations on a frozen ledger")
        });
        checks.expect(
            out.liquidity.report.probe_summary.oracle_violations == 0,
            || "liquidity suite reports oracle violations".to_string(),
        );
    }

    fn probes(input: &Input, _out: Output, l: &mut Layers) {
        let state = &input.study.output().final_state;
        let sample = &input.stream[..input.stream.len().min(128)];

        // `Router::route` cold (fresh router per query), then cached.
        let started = Instant::now();
        for p in sample {
            let mut router = calls::router_new();
            std::hint::black_box(calls::router_route(&mut router, state, p));
        }
        l.set(
            "paths.route_miss_us",
            per_op_ns(sample.len() as u64, started.elapsed().as_secs_f64()) / 1e3,
        );
        let mut router = calls::router_new();
        for p in sample {
            calls::router_route(&mut router, state, p);
        }
        let started = Instant::now();
        for _ in 0..8 {
            for p in sample {
                std::hint::black_box(calls::router_route(&mut router, state, p));
            }
        }
        l.set(
            "paths.route_hit_ns",
            per_op_ns(8 * sample.len() as u64, started.elapsed().as_secs_f64()),
        );
        // The cold reference search the router is checked against.
        let started = Instant::now();
        for p in sample {
            std::hint::black_box(calls::paths_find_cold(state, p));
        }
        l.set(
            "paths.find_cold_us",
            per_op_ns(sample.len() as u64, started.elapsed().as_secs_f64()) / 1e3,
        );

        // `PaymentEngine::pay` over the stream on a clone it mutates.
        let started = Instant::now();
        let mut scratch = calls::ledger_clone(state);
        l.set(
            "ledger.state_clone_ms",
            started.elapsed().as_secs_f64() * 1e3,
        );
        let started = Instant::now();
        std::hint::black_box(calls::paths_pay_all(&mut scratch, &input.stream));
        l.set(
            "paths.pay_tx_s",
            per_sec(input.stream.len() as u64, started.elapsed().as_secs_f64()),
        );
    }
}
