//! `archive_serve` — the read side of `ripple-store` (frame CRC, codec
//! decode, postings) plus `ripple-query`'s block cache, over an archive
//! larger than the default 64 MB cache. Every pass opens a fresh engine
//! (cold cache), then runs two closed-loop phases: a point phase (one
//! client, most-recent-event lookups on quadratically skewed accounts,
//! each call timed) and a mixed phase (min(2, nproc) client threads, 90%
//! point / 10% range-128, flow and class queries). Ledger, paths and
//! synth changes must not move it.
//!
//! The load loops — skew pick, op mix, percentiles — are the harness's
//! own, not `query::load`, so the ruler does not move with the product.

use std::sync::Arc;
use std::time::Instant;

use std::collections::HashMap;

use crate::calls::{self, AccountId, Currency, HistoryEvent, Observation, QueryEngine as Engine};
use crate::harness::{rss_mb, Checks, Ctx, Layers, PassOut, Workload};
use crate::probe::{per_op_ns, per_sec};
use crate::stats::{highest_supported_percentile, percentile};

/// Payments behind the served archive at full size (~95 MB, 1.5x the
/// default block cache).
pub const PAYMENTS: usize = 200_000;
/// Point-phase lookups per pass.
pub const POINT_OPS: u64 = 500_000;
/// Mixed-phase operations per pass.
pub const MIXED_OPS: u64 = 100_000;
/// Keep-alive HTTP point lookups in the traced run's probe. Few, because
/// each costs ~44 ms today: the server writes head and body separately
/// without `TCP_NODELAY`, so every reply waits out a delayed ACK.
const HTTP_REQUESTS: usize = 48;
/// Accounts whose indexed history is checked against a linear rescan.
const CHECKED_ACCOUNTS: usize = 256;

pub struct ArchiveServe;

pub struct Input {
    seed: u64,
    archive: Vec<u8>,
    point_ops: u64,
    mixed_ops: u64,
}

/// Per-kind latency samples (ns) and visited-event sums of a phase.
#[derive(Default)]
struct Samples {
    point: Vec<u64>,
    range: Vec<u64>,
    flow: Vec<u64>,
    class: Vec<u64>,
    visited: u64,
    failed: u64,
}

impl Samples {
    fn merge(&mut self, other: Samples) {
        self.point.extend(other.point);
        self.range.extend(other.range);
        self.flow.extend(other.flow);
        self.class.extend(other.class);
        self.visited += other.visited;
        self.failed += other.failed;
    }
}

pub struct Output {
    engine: Arc<Engine>,
    accounts: Vec<AccountId>,
    records: u64,
    sidecar_bytes: u64,
    open_secs: f64,
    point: Samples,
    mixed: Samples,
    mixed_secs: f64,
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Quadratic skew over an activity-sorted list: the busiest accounts
/// absorb most of the traffic, as hot keys do.
fn pick_skewed(r: u64, n: usize) -> usize {
    let x = (r % n as u64) as u128;
    ((x * x) / n as u128) as usize
}

/// What the clients query: prepared once per pass, outside the phases.
struct Targets {
    accounts: Vec<AccountId>,
    flows: Vec<(Currency, u64)>,
    observations: Vec<Observation>,
    bounds: (u64, u64),
}

fn point_op(engine: &Engine, targets: &Targets, roll: u64, s: &mut Samples) {
    let account = &targets.accounts[pick_skewed(roll >> 8, targets.accounts.len())];
    let started = Instant::now();
    let visited = calls::query_point(engine, account);
    s.point.push(started.elapsed().as_nanos() as u64);
    match visited {
        Some(n) if n > 0 => s.visited += n as u64,
        _ => s.failed += 1,
    }
}

/// One client's closed loop: the next request is issued when the previous
/// one returns.
fn client_loop(engine: &Engine, targets: &Targets, seed: u64, ops: u64, point_pct: u64) -> Samples {
    let mut s = Samples::default();
    let mut rng = seed;
    for _ in 0..ops {
        let roll = splitmix64(&mut rng);
        if roll % 100 < point_pct {
            point_op(engine, targets, roll, &mut s);
            continue;
        }
        match roll % 3 {
            0 => {
                let (lo, hi) = targets.bounds;
                let span = (hi - lo).max(1);
                let from = lo + splitmix64(&mut rng) % span;
                let to = (from + span / 256 + 1).min(hi + 1);
                let started = Instant::now();
                let visited = calls::query_range(engine, from, to);
                s.range.push(started.elapsed().as_nanos() as u64);
                match visited {
                    Some(n) => s.visited += n as u64,
                    None => s.failed += 1,
                }
            }
            1 => {
                let key =
                    targets.flows[(splitmix64(&mut rng) % targets.flows.len() as u64) as usize];
                let started = Instant::now();
                let payments = calls::query_flow(engine, key);
                s.flow.push(started.elapsed().as_nanos() as u64);
                match payments {
                    Some(n) => s.visited += n,
                    None => s.failed += 1,
                }
            }
            _ => {
                let o = &targets.observations
                    [(splitmix64(&mut rng) % targets.observations.len() as u64) as usize];
                let started = Instant::now();
                let candidates = calls::query_class(engine, o);
                s.class.push(started.elapsed().as_nanos() as u64);
                // The observation is a full view of an indexed payment.
                if candidates == 0 {
                    s.failed += 1;
                }
                s.visited += candidates as u64;
            }
        }
    }
    s
}

fn sorted(mut v: Vec<u64>) -> Vec<u64> {
    v.sort_unstable();
    v
}

/// Nearest-rank median of a latency sample, ns.
fn median_ns(samples: &[u64]) -> f64 {
    percentile(&sorted(samples.to_vec()), 0.5) as f64
}

/// The accounts `event` touches — the rule a linear rescan filters by.
fn touched(event: &HistoryEvent) -> [AccountId; 2] {
    match event {
        HistoryEvent::Payment(p) => [p.sender, p.destination],
        HistoryEvent::OfferPlaced { owner, .. } => [*owner, *owner],
        HistoryEvent::TrustSet {
            truster, trustee, ..
        } => [*truster, *trustee],
        HistoryEvent::AccountCreated { account, .. } => [*account, *account],
    }
}

fn sizes_at(scale: f64) -> (usize, u64, u64) {
    (
        ((PAYMENTS as f64 * scale) as usize).max(400),
        ((POINT_OPS as f64 * scale) as u64).max(2_000),
        ((MIXED_OPS as f64 * scale) as u64).max(1_000),
    )
}

fn client_count() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
}

impl Workload for ArchiveServe {
    type Input = Input;
    type Output = Output;

    const NAME: &'static str = "archive_serve";

    fn sizes(scale: f64) -> Vec<(&'static str, u64)> {
        let (payments, point_ops, mixed_ops) = sizes_at(scale);
        vec![
            ("payments", payments as u64),
            ("point_ops", point_ops),
            ("mixed_ops", mixed_ops),
            ("clients", client_count() as u64),
        ]
    }

    fn setup(seed: u64, scale: f64) -> Input {
        let (payments, point_ops, mixed_ops) = sizes_at(scale);
        let mut run = calls::generate_pipelined(seed, payments, true);
        Input {
            seed,
            archive: run.archive.take().expect("archive was requested"),
            point_ops,
            mixed_ops,
        }
    }

    fn pass(input: &Input, ctx: &mut Ctx) -> Output {
        // `open` consumes its bytes; the copy is the harness's cost.
        let bytes = ctx.call("harness.archive_copy", || input.archive.clone());
        let (engine, report) = ctx.call("query.open_s", || calls::query_open(bytes, None));
        let open_secs = ctx.get("query.open_s");
        let engine = Arc::new(engine);

        // Server warm-up before traffic: activity ranking, flow keys, the
        // payment arena and the memoized full-resolution class index.
        let targets = ctx.call("query.prepare", || {
            let mut rng = input.seed ^ 0xc1a5_5000;
            Targets {
                accounts: calls::query_accounts_by_activity(&engine),
                flows: calls::query_flow_keys(&engine),
                observations: calls::query_observations(
                    &engine,
                    (0..1_024).map(|_| splitmix64(&mut rng)),
                ),
                bounds: calls::query_time_bounds(&engine),
            }
        });

        let started = Instant::now();
        let point = ctx.call("query.point_phase", || {
            client_loop(&engine, &targets, input.seed, input.point_ops, 100)
        });
        let point_secs = started.elapsed().as_secs_f64();
        let (hits, misses, _) = calls::query_cache_stats(&engine);
        ctx.note(
            "query.cache_hit_share",
            hits as f64 / (hits + misses).max(1) as f64,
        );
        ctx.note("query.point_ops_s", per_sec(input.point_ops, point_secs));

        let clients = client_count();
        let started = Instant::now();
        let mixed = ctx.call("query.mixed_phase", || {
            let mut all = Samples::default();
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..clients)
                    .map(|c| {
                        let ops = input.mixed_ops / clients as u64
                            + u64::from((c as u64) < input.mixed_ops % clients as u64);
                        let seed = input
                            .seed
                            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                            .wrapping_add(c as u64 + 1);
                        let (engine, targets) = (&engine, &targets);
                        scope.spawn(move || client_loop(engine, targets, seed, ops, 90))
                    })
                    .collect();
                for handle in handles {
                    all.merge(handle.join().expect("client thread panicked"));
                }
            });
            all
        });
        let mixed_secs = started.elapsed().as_secs_f64();

        let (_, _, resident) = calls::query_cache_stats(&engine);
        ctx.note("query.cache_resident_mb", resident as f64 / 1e6);
        ctx.note(
            "query.resident_bytes_per_archive_byte",
            rss_mb() * 1024.0 * 1024.0 / input.archive.len().max(1) as f64,
        );
        ctx.note("query.range_us_p50", median_ns(&mixed.range) / 1e3);
        ctx.note("query.flow_ns", median_ns(&mixed.flow));
        ctx.note("query.class_us", median_ns(&mixed.class) / 1e3);

        Output {
            engine,
            accounts: targets.accounts,
            records: report.records,
            sidecar_bytes: report.sidecar_bytes,
            open_secs,
            point,
            mixed,
            mixed_secs,
        }
    }

    fn summarize(input: &Input, out: &Output) -> PassOut {
        let point = sorted(out.point.point.clone());
        // The tail is read at p99, or lower while the sample is too small
        // to leave ten points beyond it.
        let tail = highest_supported_percentile(point.len()).map_or(0.5, |q| q.min(0.99));
        let p99 = percentile(&point, tail);
        let mut m: Vec<u8> = Vec::new();
        for v in [
            out.records,
            out.sidecar_bytes,
            out.point.point.len() as u64,
            out.point.visited,
            out.mixed.point.len() as u64,
            out.mixed.range.len() as u64,
            out.mixed.flow.len() as u64,
            out.mixed.class.len() as u64,
            out.mixed.visited,
        ] {
            m.extend_from_slice(&v.to_be_bytes());
        }
        PassOut {
            ops: input.mixed_ops,
            op_secs: Some(out.mixed_secs),
            failed: out.point.failed + out.mixed.failed,
            digest: calls::digest(&m),
            extra: vec![
                ("open_s", out.open_secs),
                ("point_p50_ns", percentile(&point, 0.5) as f64),
                ("point_p99_ns", p99 as f64),
            ],
        }
    }

    fn check(input: &Input, out: &Output, checks: &mut Checks) {
        // Sampled accounts: the indexed history equals what one linear
        // scan of the archive finds for them.
        let step = (out.accounts.len() / CHECKED_ACCOUNTS).max(1);
        let sample: Vec<AccountId> = out
            .accounts
            .iter()
            .step_by(step)
            .take(CHECKED_ACCOUNTS)
            .copied()
            .collect();
        let slot: HashMap<AccountId, usize> =
            sample.iter().enumerate().map(|(i, a)| (*a, i)).collect();
        let mut scanned: Vec<Vec<u64>> = vec![Vec::new(); sample.len()];
        for (offset, event) in calls::store_read_all_at(&input.archive) {
            let [a, b] = touched(&event);
            if let Some(&i) = slot.get(&a) {
                scanned[i].push(offset);
            }
            if b != a {
                if let Some(&i) = slot.get(&b) {
                    scanned[i].push(offset);
                }
            }
        }
        for (account, expect) in sample.iter().zip(&scanned) {
            let indexed = calls::query_history_offsets(&out.engine, account);
            checks.expect(indexed.as_ref() == Some(expect), || {
                format!(
                    "account {}: indexed history has {:?} events, linear scan {}",
                    account.to_base58(),
                    indexed.as_ref().map(Vec::len),
                    expect.len()
                )
            });
        }
        // And the product's own rescan agrees, on the busiest account's
        // 99th-percentile neighbour (one full rescan is ~a second).
        let heavy = out.accounts[(out.accounts.len() / 100).min(out.accounts.len() - 1)];
        checks.expect(
            calls::query_history_offsets(&out.engine, &heavy)
                == calls::query_rescan_offsets(&out.engine, &heavy),
            || "indexed history differs from rescan_account_history".to_string(),
        );
    }

    fn probes(input: &Input, out: Output, l: &mut Layers) {
        let archive = &input.archive;
        let mb = archive.len() as f64 / 1e6;

        // store: what `open` is made of.
        let started = Instant::now();
        let postings = calls::store_postings_build(archive);
        l.set(
            "store.postings_build_mb_s",
            mb / started.elapsed().as_secs_f64().max(1e-9),
        );
        let started = Instant::now();
        let sidecar = calls::store_sidecar_roundtrip(&postings);
        l.set(
            "store.sidecar_roundtrip_ms",
            started.elapsed().as_secs_f64() * 1e3,
        );
        l.set(
            "store.sidecar_bytes_per_archive_byte",
            sidecar as f64 / archive.len().max(1) as f64,
        );
        l.set(
            "store.archive_bytes_per_event",
            archive.len() as f64 / out.records.max(1) as f64,
        );
        let spans = calls::store_block_spans(&postings);
        let picked: Vec<(u64, u64)> = spans
            .iter()
            .step_by((spans.len() / 2_000).max(1))
            .copied()
            .collect();
        let started = Instant::now();
        let mut decoded = 0usize;
        for span in &picked {
            decoded += calls::store_decode_block(archive, *span);
        }
        let secs = started.elapsed().as_secs_f64();
        std::hint::black_box(decoded);
        l.set(
            "store.decode_block_us",
            per_op_ns(picked.len() as u64, secs) / 1e3,
        );
        let started = Instant::now();
        std::hint::black_box(calls::store_crc32(&archive[..archive.len().min(32 << 20)]));
        l.set(
            "store.crc32_mb_s",
            archive.len().min(32 << 20) as f64 / 1e6 / started.elapsed().as_secs_f64().max(1e-9),
        );
        let started = Instant::now();
        let events = calls::store_read_all(archive);
        let secs = started.elapsed().as_secs_f64();
        l.set("store.decode_records_s", per_sec(events.len() as u64, secs));
        l.set("store.decode_mb_s", mb / secs.max(1e-9));
        drop(events);

        // query: linear rescan, the fits-in-cache case, and the HTTP path.
        let heavy = out.accounts[(out.accounts.len() / 100).min(out.accounts.len() - 1)];
        let started = Instant::now();
        std::hint::black_box(calls::query_rescan_offsets(&out.engine, &heavy));
        l.set("query.rescan_ms", started.elapsed().as_secs_f64() * 1e3);

        let http_accounts: Vec<AccountId> = {
            let mut rng = input.seed ^ 0x4774;
            (0..HTTP_REQUESTS.min(input.point_ops as usize / 1_000))
                .map(|_| out.accounts[pick_skewed(splitmix64(&mut rng), out.accounts.len())])
                .collect()
        };
        let started = Instant::now();
        let samples = calls::query_http_points(Arc::clone(&out.engine), &http_accounts);
        let secs = started.elapsed().as_secs_f64();
        l.set("query.http_req_s", per_sec(samples.len() as u64, secs));
        l.set("query.http_point_us_p50", median_ns(&samples) / 1e3);

        // A second engine whose cache holds every decoded block: after
        // one warming pass every point lookup is a hit.
        let (hot, _) = calls::query_open(archive.clone(), Some(archive.len() * 16));
        let targets = Targets {
            accounts: out.accounts.clone(),
            flows: Vec::new(),
            observations: Vec::new(),
            bounds: (0, 0),
        };
        let warm_ops = input.point_ops.min(200_000);
        // Admission needs repeated misses before a block is cached, so
        // warm with the same stream several times.
        for _ in 0..4 {
            client_loop(&hot, &targets, input.seed, warm_ops, 100);
        }
        let started = Instant::now();
        let s = client_loop(&hot, &targets, input.seed, warm_ops, 100);
        let secs = started.elapsed().as_secs_f64();
        std::hint::black_box(s.visited);
        l.set("query.point_hot_ns", per_op_ns(warm_ops, secs));
    }
}
