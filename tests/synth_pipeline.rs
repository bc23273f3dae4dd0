//! Determinism and structure guarantees of the pipelined generator.
//!
//! The pipeline's contract: for a fixed configuration, the generated
//! history — events, analytics tallies, and encoded archive bytes — is
//! identical for every scripting worker count and across repeat runs.
//! Chunked scripting must also respect the ledger page grid: no page (and
//! hence no MTL burst or ACCOUNT_ZERO ping-pong pair, which always share a
//! page) may straddle a chunk boundary.

use proptest::prelude::*;

use ripple_core::crypto::sha512_half;
use ripple_core::ledger::Drops;
use ripple_core::store::{PostingsConfig, PostingsIndex};
use ripple_core::synth::{plan_history, PipelineConfig, PipelineRun, ScriptedBody};
use ripple_core::{Generator, Study, SynthConfig};

fn pipelined(payments: usize, seed: u64, workers: usize) -> PipelineRun {
    let config = SynthConfig {
        seed,
        ..SynthConfig::small(payments)
    };
    Generator::new(config)
        .run_pipelined(&PipelineConfig {
            workers,
            chunk_size: 512,
            archive: true,
            ..PipelineConfig::default()
        })
        .expect("pipeline")
}

#[test]
fn golden_history_identical_across_worker_counts_and_repeats() {
    let runs: Vec<PipelineRun> = [1, 2, 8, 2]
        .into_iter()
        .map(|workers| pipelined(4_000, 20130101, workers))
        .collect();
    let golden = &runs[0];
    let golden_digest = sha512_half(golden.archive.as_ref().expect("archive on"));
    assert_eq!(golden.output.payments().count(), 4_000);
    for run in &runs[1..] {
        assert_eq!(
            run.output.events, golden.output.events,
            "event stream must not depend on worker count"
        );
        assert_eq!(
            sha512_half(run.archive.as_ref().expect("archive on")),
            golden_digest,
            "archive bytes must not depend on worker count"
        );
        assert_eq!(run.tallies.payments, golden.tallies.payments);
        assert_eq!(run.tallies.currency_counts, golden.tallies.currency_counts);
        assert_eq!(run.tallies.hop_histogram, golden.tallies.hop_histogram);
        assert_eq!(
            run.tallies.parallel_histogram,
            golden.tallies.parallel_histogram
        );
    }
    let mut studies = runs.into_iter().map(Study::from_pipeline);
    let golden_arena = studies.next().expect("four runs").payment_arena();
    for study in studies {
        assert_eq!(study.payment_arena(), golden_arena);
    }
}

/// Absolute pin of the default executor's output, so an executor edit
/// that changes the history fails here instead of only moving every
/// worker count together. Constants taken at commit 028d79f.
#[test]
fn pipelined_history_matches_the_pinned_digest() {
    let config = SynthConfig {
        seed: 20130101,
        ..SynthConfig::small(4_000)
    };
    let run = Generator::new(config)
        .run_pipelined(&PipelineConfig::default())
        .expect("pipeline");
    assert_eq!(
        sha512_half(run.archive.as_ref().expect("archive on")).to_hex(),
        "34632c657869ad8a5494adabdc233b87b2e9e4b9c101d074aac5775d5fe6464a"
    );
    assert_eq!(run.output.events.len(), 18_469);
    assert_eq!(run.output.final_state.total_burned(), Drops::ZERO);
}

/// Absolute pin of the `RPLSIDX1` sidecar built over the pinned archive,
/// so a change to the shared frame layout or field codec that moves a
/// sidecar byte fails here. Constant taken at commit a75b81f.
#[test]
fn sidecar_over_the_pinned_archive_matches_its_pin() {
    let config = SynthConfig {
        seed: 20130101,
        ..SynthConfig::small(4_000)
    };
    let run = Generator::new(config)
        .run_pipelined(&PipelineConfig::default())
        .expect("pipeline");
    let archive = run.archive.as_ref().expect("archive on");
    let sidecar = PostingsIndex::build(archive, &PostingsConfig::default())
        .expect("postings build")
        .to_bytes();
    assert_eq!(
        sha512_half(&sidecar).to_hex(),
        "4629b282541b86bbc5f7bcdd9a216aaf538dd6776b19c53a7a6df1a783e3a781"
    );
}

/// `Generator::run` and `Study::generate` are the pipeline with default
/// settings, not a second generator: same events, same state, same
/// figures as an explicit pipelined run of the pinned config.
#[test]
fn run_is_the_default_pipelined_run() {
    let config = SynthConfig {
        seed: 20130101,
        ..SynthConfig::small(4_000)
    };
    let out = Generator::new(config.clone()).run();
    let run = Generator::new(config.clone())
        .run_pipelined(&PipelineConfig::default())
        .expect("pipeline");
    assert_eq!(out.events, run.output.events);
    assert_eq!(
        out.final_state.account_count(),
        run.output.final_state.account_count()
    );
    assert!(out.snapshot.is_some() && run.output.snapshot.is_some());
    assert_eq!(
        Study::generate(config).figure4(),
        Study::from_pipeline(run).figure4()
    );
}

#[test]
fn pipelined_study_answers_match_a_full_rescan() {
    let run = pipelined(3_000, 7, 4);
    let study = Study::from_pipeline(run);
    let rescan = ripple_core::analytics::currency_usage(study.output().payments());
    assert_eq!(study.figure4(), rescan);
    assert_eq!(
        study.figure6a(),
        ripple_core::analytics::path_hop_histogram(study.output().payments())
    );
    assert_eq!(
        study.figure6b(),
        ripple_core::analytics::parallel_path_histogram(study.output().payments())
    );
    for (currency, curve) in study.figure5() {
        let rebuilt =
            ripple_core::analytics::SurvivalCurve::build(study.output().payments(), currency);
        assert_eq!(curve.len(), rebuilt.len(), "{currency:?}");
        assert_eq!(curve.series(), rebuilt.series(), "{currency:?}");
    }
}

/// The study builds its arena from the history on first use: the same
/// records in the same order, and one shared copy however often it is
/// asked for.
#[test]
fn study_arena_equals_the_payments_in_order() {
    let run = pipelined(2_000, 9, 2);
    let study = Study::from_pipeline(run);
    let a = study.payment_arena();
    let b = study.payment_arena();
    assert!(std::sync::Arc::ptr_eq(&a, &b), "arena must be shared");
    assert_eq!(a.len(), 2_000);
    let payments: Vec<_> = study.output().payments().cloned().collect();
    assert_eq!(&a[..], &payments[..]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Chunk windows are separated by at least one page, so no ledger page
    /// — and therefore no MTL burst and no ACCOUNT_ZERO ping-pong pair,
    /// which by construction stay on one page — ever spans two chunks.
    #[test]
    fn chunk_boundaries_never_split_pages_or_bursts(
        payments in 800usize..2_500,
        chunk_size in 128usize..512,
        seed in 0u64..1_000_000,
    ) {
        let config = SynthConfig { seed, ..SynthConfig::small(payments) };
        let page = config.page_interval_secs.max(1);
        let (_cast, chunks) = plan_history(&config, 2, chunk_size);

        let total: usize = chunks.iter().map(|c| c.entries.len()).sum();
        prop_assert_eq!(total, payments);

        let mut prev_chunk_last = None;
        for chunk in &chunks {
            prop_assert!(!chunk.entries.is_empty());
            let mut prev = None;
            let mut outs_seen = 0usize;
            for (i, entry) in chunk.entries.iter().enumerate() {
                // Page-grid alignment and in-chunk monotonicity.
                prop_assert_eq!(
                    (entry.timestamp.seconds() - config.start.seconds()) % page,
                    0
                );
                if let Some(p) = prev {
                    prop_assert!(entry.timestamp >= p);
                }
                // The ping-pong phase restarts in every chunk, so a
                // bounce-back never depends on an outbound leg from another
                // chunk, and it always lands on the page its predecessor
                // opened (a bounce never advances the clock).
                match &entry.body {
                    ScriptedBody::ZeroOut { .. } => outs_seen += 1,
                    ScriptedBody::ZeroBack { .. } => {
                        prop_assert!(i > 0, "bounce-back cannot open a chunk");
                        prop_assert!(
                            outs_seen > 0,
                            "bounce-back without any outbound leg in its chunk"
                        );
                        prop_assert_eq!(prev, Some(entry.timestamp));
                    }
                    _ => {}
                }
                prev = Some(entry.timestamp);
            }
            // The chunk's first page starts strictly after the previous
            // chunk's last page: pages never straddle chunks, so no MTL
            // burst (whose members share a page) is ever split.
            if let Some(last) = prev_chunk_last {
                prop_assert!(
                    chunk.entries[0].timestamp > last,
                    "chunk {} reuses the previous chunk's page",
                    chunk.index
                );
            }
            prev_chunk_last = prev;
        }
    }

    /// The scripted plan itself (not just the executed history) is
    /// identical for any worker count.
    #[test]
    fn script_is_identical_for_any_worker_count(
        payments in 500usize..1_500,
        seed in 0u64..1_000_000,
    ) {
        let config = SynthConfig { seed, ..SynthConfig::small(payments) };
        let (_, one) = plan_history(&config, 1, 256);
        let (_, three) = plan_history(&config, 3, 256);
        prop_assert_eq!(one, three);
    }
}
