//! End-to-end guarantees of the `ripple-obs` observability layer.
//!
//! The contract under test: the *deterministic* slice of a metrics
//! snapshot (counters and histograms — logical quantities) is
//! byte-identical however many scripting workers drive the pipelined
//! generator, and an instrumented run emits spans for every pipeline
//! stage. Gauges and timers are scheduling-dependent by design and are
//! excluded from `deterministic_json`.
//!
//! The registry and the tracer are process-global, so the tests serialize
//! on one lock and reset state at each boundary.

use std::sync::Mutex;

use ripple_core::obs::{metrics, trace};
use ripple_core::synth::PipelineConfig;
use ripple_core::{Generator, SynthConfig};

static OBS_LOCK: Mutex<()> = Mutex::new(());

fn generate(workers: usize) {
    let config = SynthConfig {
        seed: 20130101,
        ..SynthConfig::small(3_000)
    };
    Generator::new(config)
        .run_pipelined(&PipelineConfig {
            workers,
            chunk_size: 512,
            archive: false,
            ..PipelineConfig::default()
        })
        .expect("pipeline");
}

#[test]
fn deterministic_snapshot_is_identical_across_worker_counts() {
    let _guard = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let mut docs = Vec::new();
    for workers in [1usize, 2, 8] {
        metrics::reset();
        metrics::set_enabled(true);
        generate(workers);
        let snap = metrics::snapshot();
        // The full snapshot must at least see the logical volume counters.
        assert_eq!(snap.counter("synth.exec.payments"), Some(3_000));
        // The executor's work, pinned: one probe per hop (a refused hop is
        // not probed again), the hops that had to make room, and the
        // events the sink received.
        assert_eq!(snap.counter("synth.exec.hop_probes"), Some(33_167));
        assert_eq!(snap.counter("synth.exec.trust_escalations"), Some(5_018));
        assert_eq!(snap.counter("synth.sink.events"), Some(15_007));
        assert!(snap.counter("synth.sink.encoded_bytes").unwrap_or(0) > 0);
        assert!(snap.counter("store.writer.frames").unwrap_or(0) > 0);
        docs.push((workers, snap.deterministic_json()));
    }
    metrics::set_enabled(false);
    let (_, golden) = &docs[0];
    assert!(golden.contains("\"schema_version\": 1"));
    for (workers, doc) in &docs[1..] {
        assert_eq!(
            doc, golden,
            "deterministic metrics must not depend on worker count ({workers} workers)"
        );
    }
}

#[test]
fn instrumented_run_emits_spans_for_every_pipeline_stage() {
    let _guard = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    metrics::reset();
    let _ = trace::drain(); // clear any prior buffer; drain() stops tracing
    trace::enable(trace::DEFAULT_CAPACITY);
    generate(2);
    let events = trace::drain();
    assert!(!events.is_empty(), "an instrumented run must produce spans");
    for stage in ["script_chunk", "exec_chunk", "encode_batch", "tally_batch"] {
        assert!(
            events.iter().any(|e| e.name == stage),
            "missing span for pipeline stage {stage}"
        );
    }
    // Spans carry monotonic non-negative timestamps and real durations.
    assert!(events.windows(2).all(|w| w[0].ts_ns <= w[1].ts_ns));
    // The exported document is chrome://tracing's trace-event shape.
    let json = trace::to_chrome_json(&events);
    assert!(json.starts_with("{\"traceEvents\": ["));
    assert!(json.contains("\"ph\": \"X\""));
}

#[test]
fn liquidity_suite_emits_one_span_per_phase() {
    use ripple_core::liquidity::{run_liquidity, LiquidityConfig};

    let _guard = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let output = Generator::new(SynthConfig {
        seed: 20130101,
        ..SynthConfig::small(1_500)
    })
    .run();
    // Two waves over any population of two or more split it in two.
    let config = LiquidityConfig {
        probes: 16,
        oracle_sample: 2,
        insolvency_waves: 2,
        drain_percents: vec![25, 50, 75],
        exit_waves: 2,
        redeem_holders_per_gateway: 1,
        ..LiquidityConfig::default()
    };
    metrics::reset();
    let _ = trace::drain();
    trace::enable(trace::DEFAULT_CAPACITY);
    let report = run_liquidity(&output, &config).report;
    let events = trace::drain();

    let count = |name: &str| {
        events
            .iter()
            .filter(|e| e.cat == "liquidity" && e.name == name)
            .count()
    };
    assert_eq!(count("baseline"), 1);
    assert_eq!(count("insolvency_wave"), config.insolvency_waves);
    assert_eq!(count("drain_point"), config.drain_percents.len());
    assert_eq!(count("exit_wave"), config.exit_waves);
    assert_eq!(
        events.iter().filter(|e| e.cat == "liquidity").count(),
        1 + config.insolvency_waves + config.drain_percents.len() + config.exit_waves
    );
    assert_eq!(report.insolvency_cascade.len(), config.insolvency_waves);
    assert_eq!(report.mm_exit_waves.len(), config.exit_waves);
}

#[test]
fn a_broadcast_shares_one_position_buffer() {
    // Count gate for the message-level engine: an honest validator builds
    // one position buffer per iteration and every recipient of its
    // broadcast shares it, so buffers grow with n while proposals grow
    // with n². Both are counts of a seeded simulation and repeat exactly.
    use std::collections::BTreeSet;

    use ripple_core::check::testkit::honest_validators;
    use ripple_core::consensus::RoundEngine;

    let _guard = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let n = 20usize;
    let positions: Vec<BTreeSet<u64>> = (0..n as u64)
        .map(|v| (0..49).chain([1_000 + v]).collect())
        .collect();
    let mut engine = RoundEngine::new(honest_validators(n));
    metrics::reset();
    metrics::set_enabled(true);
    let outcome = engine.run_round(&positions, 20130101).expect("round");
    let snap = metrics::snapshot();
    metrics::set_enabled(false);

    assert_eq!(outcome.committed.expect("commit").1, (0..49).collect());
    let n = n as u64;
    assert_eq!(
        snap.counter("consensus.rounds.proposals_sent"),
        Some(4 * n * (n - 1))
    );
    let allocs = snap
        .counter("consensus.rounds.position_allocs")
        .expect("counter registered");
    assert!(
        (1..=5 * n).contains(&allocs),
        "{allocs} position buffers for {} proposals",
        4 * n * (n - 1)
    );
}

#[test]
fn only_a_stale_proposal_registers_the_stale_counter() {
    // A proposal names its round; one that arrives in a later round is
    // dropped and counted. The counter is registered by the first drop, so
    // a fault-free snapshot has no such key. (No other test in this binary
    // delays a proposal past its round.)
    use std::collections::BTreeSet;

    use ripple_core::check::testkit::honest_validators;
    use ripple_core::consensus::RoundEngine;
    use ripple_core::netsim::{LatencyModel, NodeId, SimTime};

    const STALE: &str = "consensus.rounds.stale_proposals";
    let _guard = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let n = 5usize;
    let positions = |txs: [u64; 2]| vec![BTreeSet::from(txs); n];

    metrics::reset();
    metrics::set_enabled(true);
    let mut engine = RoundEngine::new(honest_validators(n));
    for round in 0..3 {
        engine.run_round(&positions([1, 2]), round).expect("round");
    }
    let honest = metrics::snapshot();
    assert_eq!(honest.counter("consensus.rounds.run"), Some(3));
    assert_eq!(honest.counter(STALE), None, "no drop, no key");

    // Everything the last validator hears is one round and a bit old: the
    // 4 iterations x 4 senders of round 0 reach it during round 1, the
    // same of round 1 during round 2, and round 2's are still in flight.
    let mut engine = RoundEngine::new(honest_validators(n));
    let late = LatencyModel::Fixed(engine.round_duration() + SimTime::from_millis(100));
    for from in 0..n - 1 {
        engine
            .network_mut()
            .set_link_latency(NodeId(from), NodeId(n - 1), late);
    }
    metrics::reset();
    let mut dropped = Vec::new();
    for round in 0..3u64 {
        let outcome = engine
            .run_round(&positions([10 * round, 10 * round + 1]), round)
            .expect("round");
        assert_eq!(outcome.agreement, 0.8, "the other four still commit");
        dropped.push(metrics::snapshot().counter(STALE).unwrap_or(0));
    }
    metrics::set_enabled(false);
    assert_eq!(dropped, [0, 16, 32]);
}
