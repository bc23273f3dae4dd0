//! Closed-loop lookup load generator.
//!
//! Drives a [`QueryEngine`] from `clients` worker threads, each issuing its
//! next request the moment the previous one returns (closed loop: offered
//! load adapts to service rate, so the reported throughput is what the
//! engine actually sustained, not a target). The operation mix is
//! deterministic per seed, account picks are skewed quadratically toward
//! the busiest accounts (hot-key traffic is what the block cache exists
//! for), and latencies go through [`ripple_obs`] histograms so the
//! p50/p90/p99 readouts in `BENCH_store.json` use the same bucketing as
//! every other artifact in the repo.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use ripple_crypto::AccountId;
use ripple_deanon::{Observation, ResolutionSpec};
use ripple_ledger::{Currency, RippleTime};
use ripple_obs::LazyHistogram;

use crate::engine::QueryEngine;

/// Point-lookup latency (account-history tail), nanoseconds.
pub static POINT_NS: LazyHistogram = LazyHistogram::new("query.load.point_ns");
/// Range-scan latency, nanoseconds.
pub static SCAN_NS: LazyHistogram = LazyHistogram::new("query.load.scan_ns");
/// Flow-aggregate latency, nanoseconds.
pub static FLOW_NS: LazyHistogram = LazyHistogram::new("query.load.flow_ns");
/// Fingerprint-class latency, nanoseconds.
pub static CLASS_NS: LazyHistogram = LazyHistogram::new("query.load.class_ns");

/// Events per point lookup: the account's most recent event (the
/// "current state" probe a wallet UI or payment processor issues).
const POINT_LIMIT: usize = 1;

/// Events walked per range scan before the visitor stops.
pub const SCAN_LIMIT: usize = 128;

/// Load-generator knobs.
#[derive(Debug, Clone, Copy)]
pub struct LoadConfig {
    /// Closed-loop worker threads.
    pub clients: usize,
    /// Total operations across all clients.
    pub total_ops: u64,
    /// Percent of operations that are point lookups (0..=100); the
    /// remainder alternates range scans, flow aggregates and class queries.
    pub point_pct: u32,
    /// Seed for the deterministic operation streams.
    pub seed: u64,
}

impl Default for LoadConfig {
    fn default() -> LoadConfig {
        LoadConfig {
            clients: 4,
            total_ops: 200_000,
            point_pct: 90,
            seed: 0x5eed_0bb5,
        }
    }
}

/// What one load run measured.
#[derive(Debug, Clone, Copy)]
pub struct LoadReport {
    /// Operations completed.
    pub ops: u64,
    /// Point lookups issued.
    pub point_lookups: u64,
    /// Range scans issued.
    pub range_scans: u64,
    /// Frames those scans examined (decoded cold or read from a resident
    /// block): at most `SCAN_LIMIT + block_records + 1` per scan.
    pub scan_frames: u64,
    /// Flow aggregates issued.
    pub flow_lookups: u64,
    /// Fingerprint-class queries issued.
    pub class_lookups: u64,
    /// Events handed to visitors across all operations.
    pub events_visited: u64,
    /// Wall-clock seconds for the whole run.
    pub wall_secs: f64,
    /// `ops / wall_secs`.
    pub lookups_per_sec: f64,
    /// Point-lookup service rate: point lookups divided by the seconds the
    /// clients spent inside the point path. Isolates what the point path
    /// sustains from the wall-clock share the range scans and class
    /// queries consume in the mixed workload.
    pub point_lookups_per_sec: f64,
    /// Point-lookup latency percentiles, microseconds.
    pub point_us: [u64; 3],
    /// Range-scan latency percentiles, microseconds.
    pub scan_us: [u64; 3],
    /// Block-cache hit rate over this run only.
    pub cache_hit_rate: f64,
}

/// splitmix64: tiny, seedable, good enough to spread load keys.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn percentiles_us(hist: &LazyHistogram) -> [u64; 3] {
    let h = hist.force();
    [
        h.percentile(0.50) / 1_000,
        h.percentile(0.90) / 1_000,
        h.percentile(0.99) / 1_000,
    ]
}

/// Skewed account pick: quadratic over an activity-sorted list, so the
/// busiest accounts absorb most of the traffic.
fn pick_skewed(r: u64, n: usize) -> usize {
    let x = (r % n as u64) as u128;
    ((x * x) / n as u128) as usize
}

struct Workload {
    accounts: Vec<AccountId>,
    flows: Vec<(Currency, RippleTime)>,
    observations: Vec<Observation>,
    bounds: (u64, u64),
}

fn prepare(engine: &QueryEngine, seed: u64) -> Workload {
    // Activity-sorted accounts: postings length descending, ties broken by
    // account bytes so the order is deterministic.
    let mut by_activity: Vec<(usize, AccountId)> = engine
        .postings()
        .iter_accounts()
        .map(|(account, offsets)| (offsets.len(), *account))
        .collect();
    by_activity.sort_by(|a, b| {
        b.0.cmp(&a.0)
            .then_with(|| a.1.as_bytes().cmp(b.1.as_bytes()))
    });
    let accounts: Vec<AccountId> = by_activity.into_iter().map(|(_, a)| a).collect();

    let mut flows: Vec<(Currency, RippleTime)> = engine
        .postings()
        .iter_flows()
        .map(|(&(currency, day), _)| (currency, RippleTime::from_seconds(day)))
        .collect();
    flows.sort_by_key(|&(c, d)| (*c.as_bytes(), d.seconds()));

    // Sample observations for class queries from the payment arena (also
    // forces the memoized full-spec class index to build outside the timed
    // window, like a server warming its indexes at startup).
    let arena = engine.payment_arena();
    let _ = engine.class_index(ResolutionSpec::full());
    let mut rng = seed ^ 0xc1a5_5000;
    let samples = arena.len().min(1024);
    let observations: Vec<Observation> = (0..samples)
        .map(|_| {
            let p = &arena[(splitmix64(&mut rng) % arena.len() as u64) as usize];
            Observation {
                amount: Some(p.amount),
                time: Some(p.timestamp),
                currency: Some(p.currency),
                strength: None,
                destination: Some(p.destination),
            }
        })
        .collect();

    let bounds = engine
        .time_bounds()
        .map(|(lo, hi)| (lo.seconds(), hi.seconds()))
        .unwrap_or((0, 0));
    Workload {
        accounts,
        flows,
        observations,
        bounds,
    }
}

/// Runs the closed loop and reports what it sustained.
///
/// # Panics
///
/// Panics if the engine holds no events (nothing to look up).
pub fn run(engine: &Arc<QueryEngine>, config: &LoadConfig) -> LoadReport {
    assert!(
        engine.records() > 0,
        "load generator needs a non-empty archive"
    );
    let workload = Arc::new(prepare(engine, config.seed));
    let clients = config.clients.max(1);
    let per_client = config.total_ops / clients as u64;
    let remainder = config.total_ops % clients as u64;

    let hits_before = engine.cache().hits();
    let misses_before = engine.cache().misses();
    let frames_before = engine.range_frames();

    let points = AtomicU64::new(0);
    let point_ns = AtomicU64::new(0);
    let scans = AtomicU64::new(0);
    let flows = AtomicU64::new(0);
    let classes = AtomicU64::new(0);
    let visited = AtomicU64::new(0);

    let started = Instant::now();
    std::thread::scope(|scope| {
        for client in 0..clients {
            let ops = per_client + u64::from((client as u64) < remainder);
            let engine = Arc::clone(engine);
            let workload = Arc::clone(&workload);
            let seed = config
                .seed
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .wrapping_add(client as u64 + 1);
            let point_pct = config.point_pct.min(100) as u64;
            let (points, point_ns, scans, flows, classes, visited) =
                (&points, &point_ns, &scans, &flows, &classes, &visited);
            scope.spawn(move || {
                let mut rng = seed;
                let (mut p, mut pn, mut s, mut f, mut c, mut v) =
                    (0u64, 0u64, 0u64, 0u64, 0u64, 0u64);
                for _ in 0..ops {
                    let roll = splitmix64(&mut rng);
                    if roll % 100 < point_pct {
                        let account =
                            &workload.accounts[pick_skewed(roll >> 8, workload.accounts.len())];
                        let t = Instant::now();
                        let n = engine
                            .visit_account_history(account, POINT_LIMIT, |_, _| {})
                            .expect("point lookup");
                        let dt = t.elapsed().as_nanos() as u64;
                        POINT_NS.record(dt);
                        pn += dt;
                        v += n as u64;
                        p += 1;
                        continue;
                    }
                    match roll % 3 {
                        0 => {
                            let (lo, hi) = workload.bounds;
                            let span = (hi - lo).max(1);
                            let from = lo + splitmix64(&mut rng) % span;
                            let to = (from + span / 256 + 1).min(hi + 1);
                            let t = Instant::now();
                            let n = engine
                                .visit_range(
                                    RippleTime::from_seconds(from),
                                    RippleTime::from_seconds(to),
                                    SCAN_LIMIT,
                                    |_, _| {},
                                )
                                .expect("range scan");
                            SCAN_NS.record(t.elapsed().as_nanos() as u64);
                            v += n as u64;
                            s += 1;
                        }
                        1 if !workload.flows.is_empty() => {
                            let (currency, day) = workload.flows
                                [(splitmix64(&mut rng) % workload.flows.len() as u64) as usize];
                            let t = Instant::now();
                            let stat = engine.flow(currency, day);
                            FLOW_NS.record(t.elapsed().as_nanos() as u64);
                            v += stat.map_or(0, |s| s.payments);
                            f += 1;
                        }
                        _ if !workload.observations.is_empty() => {
                            let obs = &workload.observations[(splitmix64(&mut rng)
                                % workload.observations.len() as u64)
                                as usize];
                            let t = Instant::now();
                            let candidates = engine.class_candidates(ResolutionSpec::full(), obs);
                            CLASS_NS.record(t.elapsed().as_nanos() as u64);
                            v += candidates.len() as u64;
                            c += 1;
                        }
                        _ => {
                            // Archive with no flows/payments: fall back to a
                            // point lookup so the op still counts.
                            let account =
                                &workload.accounts[pick_skewed(roll >> 8, workload.accounts.len())];
                            let t = Instant::now();
                            let n = engine
                                .visit_account_history(account, POINT_LIMIT, |_, _| {})
                                .expect("point lookup");
                            let dt = t.elapsed().as_nanos() as u64;
                            POINT_NS.record(dt);
                            pn += dt;
                            v += n as u64;
                            p += 1;
                        }
                    }
                }
                points.fetch_add(p, Ordering::Relaxed);
                point_ns.fetch_add(pn, Ordering::Relaxed);
                scans.fetch_add(s, Ordering::Relaxed);
                flows.fetch_add(f, Ordering::Relaxed);
                classes.fetch_add(c, Ordering::Relaxed);
                visited.fetch_add(v, Ordering::Relaxed);
            });
        }
    });
    let wall_secs = started.elapsed().as_secs_f64();

    let hits = engine.cache().hits() - hits_before;
    let misses = engine.cache().misses() - misses_before;
    let touched = hits + misses;
    let ops = config.total_ops;
    let point_count = points.load(Ordering::Relaxed);
    let point_secs = point_ns.load(Ordering::Relaxed) as f64 / 1e9;
    LoadReport {
        ops,
        point_lookups: point_count,
        range_scans: scans.load(Ordering::Relaxed),
        scan_frames: engine.range_frames() - frames_before,
        flow_lookups: flows.load(Ordering::Relaxed),
        class_lookups: classes.load(Ordering::Relaxed),
        events_visited: visited.load(Ordering::Relaxed),
        wall_secs,
        lookups_per_sec: if wall_secs > 0.0 {
            ops as f64 / wall_secs
        } else {
            0.0
        },
        point_lookups_per_sec: if point_secs > 0.0 {
            point_count as f64 / point_secs
        } else {
            0.0
        },
        point_us: percentiles_us(&POINT_NS),
        scan_us: percentiles_us(&SCAN_NS),
        cache_hit_rate: if touched == 0 {
            0.0
        } else {
            hits as f64 / touched as f64
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineConfig;
    use ripple_crypto::sha512_half;
    use ripple_ledger::{PathSummary, PaymentRecord};
    use ripple_store::{HistoryEvent, Writer};

    fn build_engine(payments: u64) -> Arc<QueryEngine> {
        let mut buf = Vec::new();
        let mut writer = Writer::new(&mut buf);
        for i in 0..payments {
            writer
                .write(&HistoryEvent::Payment(PaymentRecord {
                    tx_hash: sha512_half(&i.to_be_bytes()),
                    sender: AccountId::from_bytes([(i % 13) as u8; 20]),
                    destination: AccountId::from_bytes([(i % 7) as u8 + 100; 20]),
                    currency: if i % 2 == 0 {
                        Currency::USD
                    } else {
                        Currency::BTC
                    },
                    issuer: None,
                    amount: "2.25".parse().unwrap(),
                    timestamp: RippleTime::from_seconds(i * 5),
                    ledger_seq: i as u32,
                    paths: PathSummary::direct(),
                    cross_currency: false,
                    source_currency: None,
                }))
                .unwrap();
        }
        writer.finish().unwrap();
        let config = EngineConfig {
            block_records: 8,
            cache_bytes: 1 << 20,
            ..EngineConfig::default()
        };
        Arc::new(QueryEngine::open(buf, &config).unwrap().0)
    }

    #[test]
    fn closed_loop_completes_every_op() {
        ripple_obs::metrics::set_enabled(true);
        let engine = build_engine(500);
        let report = run(
            &engine,
            &LoadConfig {
                clients: 2,
                total_ops: 1_000,
                point_pct: 80,
                seed: 7,
            },
        );
        assert_eq!(
            report.point_lookups + report.range_scans + report.flow_lookups + report.class_lookups,
            1_000
        );
        assert!(report.lookups_per_sec > 0.0);
        assert!(report.point_lookups_per_sec > 0.0);
        assert!(report.events_visited > 0);
        // Exact seeks: a scan examines its matches, at most one block of
        // skipped frames (8 records here) and one terminator.
        assert!(
            report.range_scans > 0 && report.scan_frames > 0,
            "{report:?}"
        );
        assert!(
            report.scan_frames <= report.range_scans * (SCAN_LIMIT as u64 + 8 + 1),
            "{report:?}"
        );
        // 80% mix must dominate.
        assert!(report.point_lookups >= 700, "{report:?}");
        // Skewed repeats on a small archive must hit the cache.
        assert!(report.cache_hit_rate > 0.5, "{report:?}");
    }

    #[test]
    fn mix_extremes_are_honoured() {
        ripple_obs::metrics::set_enabled(true);
        let engine = build_engine(200);
        let all_points = run(
            &engine,
            &LoadConfig {
                clients: 1,
                total_ops: 200,
                point_pct: 100,
                seed: 11,
            },
        );
        assert_eq!(all_points.point_lookups, 200);
        let no_points = run(
            &engine,
            &LoadConfig {
                clients: 1,
                total_ops: 200,
                point_pct: 0,
                seed: 11,
            },
        );
        assert_eq!(no_points.point_lookups, 0);
        assert_eq!(
            no_points.range_scans + no_points.flow_lookups + no_points.class_lookups,
            200
        );
    }

    #[test]
    fn skewed_pick_stays_in_bounds_and_front_loaded() {
        let mut rng = 42u64;
        let n = 1000;
        let mut hits_front = 0;
        for _ in 0..10_000 {
            let idx = pick_skewed(splitmix64(&mut rng), n);
            assert!(idx < n);
            if idx < n / 10 {
                hits_front += 1;
            }
        }
        // Quadratic skew puts ~sqrt(0.1) ≈ 31% of picks in the first decile.
        assert!(hits_front > 2_000, "{hits_front}");
    }
}
