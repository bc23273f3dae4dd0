//! Ripple Observatory — a full reproduction of *"Consensus Robustness and
//! Transaction De-Anonymization in the Ripple Currency Exchange System"*
//! (ICDCS 2017) as a Rust workspace.
//!
//! This facade crate re-exports every subsystem and provides [`Study`], the
//! one-stop pipeline that generates a calibrated history (through the one
//! pipelined executor, [`Generator::run_pipelined`]) and reproduces all of
//! the paper's tables and figures:
//!
//! | Experiment | Paper artifact | Accessor |
//! |---|---|---|
//! | E1 | Fig. 2 (validator pages, 3 periods) | [`Study::figure2`] |
//! | E2 | Table I (rounding grid) | [`ripple_deanon::AmountResolution`] |
//! | E3/E12 | Fig. 3 (information gain) | [`Study::figure3`] |
//! | E4 | Fig. 4 (currency ranking) | [`Study::figure4`] |
//! | E5 | Fig. 5 (amount survival) | [`Study::figure5`] |
//! | E6/E7 | Fig. 6 (hops, parallel paths) | [`Study::figure6a`], [`Study::figure6b`] |
//! | E8 | Table II (Market-Maker removal) | [`Study::table2`] |
//! | E9–E11 | Fig. 7 (hubs, trust, balances) | [`Study::figure7`] |
//! | E14 | Offer concentration | [`Study::offer_concentration`] |
//!
//! # Examples
//!
//! ```
//! use ripple_core::{Study, SynthConfig};
//!
//! let study = Study::generate(SynthConfig::small(2_000));
//! let fig3 = study.figure3();
//! // The strongest attacker de-anonymizes nearly everything.
//! assert!(fig3[0].1.fraction() > 0.9);
//! // Figure 4 is answered from the tallies the generator's sink kept.
//! assert_eq!(study.figure4().iter().map(|&(_, n)| n).sum::<u64>(), 2_000);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, OnceLock};

pub mod liquidity;

pub use ripple_analytics as analytics;
pub use ripple_check as check;
pub use ripple_consensus as consensus;
pub use ripple_crypto as crypto;
pub use ripple_deanon as deanon;
pub use ripple_ledger as ledger;
pub use ripple_netsim as netsim;
pub use ripple_node as node;
pub use ripple_obs as obs;
pub use ripple_orderbook as orderbook;
/// `ripple-paths`, plus the cold path search the router is checked
/// against.
pub mod paths {
    pub use ripple_check::oracle::find_payment_paths;
    pub use ripple_paths::*;
}
pub use ripple_query as query;
pub use ripple_store as store;
pub use ripple_synth as synth;

pub use liquidity::{
    run_liquidity, LiquidityConfig, LiquidityOutcome, LiquidityPerf, LiquidityReport,
};
pub use ripple_analytics::{MmRemovalReport, OfferConcentration};
pub use ripple_consensus::{CollectionPeriod, ValidatorReport};
pub use ripple_crypto::AccountId;
pub use ripple_deanon::{
    DeanonIndex, EngineConfig, Fig3Sweep, IgResult, Observation, ResolutionSpec,
};
pub use ripple_ledger::{Currency, PaymentRecord, Value};
pub use ripple_orderbook::RateTable;
pub use ripple_synth::{
    Generator, HistoryTallies, PipelineConfig, PipelineRun, SynthBench, SynthConfig, SynthOutput,
};

/// The end-to-end study: a generated history plus every analysis the paper
/// runs over it.
#[derive(Debug)]
pub struct Study {
    output: SynthOutput,
    /// Built from `output`'s payments on first use; see
    /// [`Study::payment_arena`].
    payment_arena: OnceLock<Arc<[PaymentRecord]>>,
    /// Streaming tallies from the generator's sink stage. The figure-4/5/6
    /// accessors answer from these instead of re-scanning the history.
    tallies: HistoryTallies,
}

impl Study {
    /// Generates a history with the given configuration: the pipeline
    /// defaults, archive bytes not retained (the events [`Generator::run`]
    /// produces).
    pub fn generate(config: SynthConfig) -> Study {
        let pipeline = PipelineConfig {
            archive: false,
            ..PipelineConfig::default()
        };
        Study::generate_pipelined(config, &pipeline).0
    }

    /// Generates a history under explicit pipeline settings, taking the
    /// study's analytics tallies from the run. Returns the study plus the
    /// run's stage timings.
    pub fn generate_pipelined(
        config: SynthConfig,
        pipeline: &PipelineConfig,
    ) -> (Study, SynthBench) {
        let run = Generator::new(config)
            .run_pipelined(pipeline)
            .expect("pipelined generation failed");
        let bench = run.bench.clone();
        (Study::from_pipeline(run), bench)
    }

    /// Wraps a generation run, taking its history and streaming tallies.
    pub fn from_pipeline(run: PipelineRun) -> Study {
        Study {
            output: run.output,
            payment_arena: OnceLock::new(),
            tallies: run.tallies,
        }
    }

    /// The underlying generation run.
    pub fn output(&self) -> &SynthOutput {
        &self.output
    }

    /// The payment records, in time order.
    pub fn payments(&self) -> Vec<&PaymentRecord> {
        self.output.payments().collect()
    }

    /// The payment records, in time order, as a shared arena: ten attack
    /// indexes (one per Figure 3 row) hold one copy of the history between
    /// them instead of cloning it per spec. Built from the history on the
    /// first call (here or through [`Study::attack_index`]); every call
    /// returns the same `Arc`.
    pub fn payment_arena(&self) -> Arc<[PaymentRecord]> {
        self.payment_arena
            .get_or_init(|| self.output.payments().cloned().collect())
            .clone()
    }

    /// E1 — Figure 2: runs the three collection periods for `rounds`
    /// consensus rounds each (concurrently, see
    /// [`CollectionPeriod::run_all`]), returning `(period, report)` pairs.
    pub fn figure2(&self, rounds: u64, seed: u64) -> Vec<(CollectionPeriod, ValidatorReport)> {
        CollectionPeriod::run_all(rounds, seed)
    }

    /// E3/E12 — Figure 3: information gain of every feature/resolution row.
    pub fn figure3(&self) -> Vec<(&'static str, IgResult)> {
        let records = self.payments();
        ripple_deanon::ig::figure3(&records)
    }

    /// E3/E12 — Figure 3 via the sharded single-pass engine: every row's
    /// strict *and* sender metric in one scan, plus throughput telemetry
    /// (payments/sec, per-phase wall time, peak class count).
    pub fn figure3_sweep(&self, config: EngineConfig) -> Fig3Sweep {
        let records = self.payments();
        ripple_deanon::figure3_sweep(&records, config)
    }

    /// E4 — Figure 4: ranked currency usage, from the streaming tallies.
    pub fn figure4(&self) -> Vec<(Currency, u64)> {
        let mut out: Vec<(Currency, u64)> = self
            .tallies
            .currency_counts
            .iter()
            .map(|(&c, &n)| (c, n))
            .collect();
        out.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        out
    }

    /// E5 — Figure 5: survival curves for the paper's leading currencies
    /// plus the currency-unaware "Global" series (`None` key).
    pub fn figure5(&self) -> Vec<(Option<Currency>, ripple_analytics::SurvivalCurve)> {
        let currencies = [
            Currency::BTC,
            Currency::CCK,
            Currency::CNY,
            Currency::EUR,
            Currency::MTL,
            Currency::USD,
            Currency::XRP,
        ];
        let t = &self.tallies;
        // The curve sorts its amounts, so the Global series is every
        // currency's list concatenated in any order.
        let global = t.amounts_by_currency.values().flatten().copied().collect();
        let mut out = vec![(None, ripple_analytics::SurvivalCurve::from_amounts(global))];
        for currency in currencies {
            let amounts = t
                .amounts_by_currency
                .get(&currency)
                .cloned()
                .unwrap_or_default();
            out.push((
                Some(currency),
                ripple_analytics::SurvivalCurve::from_amounts(amounts),
            ));
        }
        out
    }

    /// E6 — Figure 6(a): payment paths per intermediate-hop count.
    pub fn figure6a(&self) -> BTreeMap<usize, u64> {
        self.tallies.hop_histogram.clone()
    }

    /// E7 — Figure 6(b): payments per parallel-path count.
    pub fn figure6b(&self) -> BTreeMap<usize, u64> {
        self.tallies.parallel_histogram.clone()
    }

    /// E8 — Table II: the Market-Maker-removal replay over the post-snapshot
    /// payment window. Returns `None` if the run produced no snapshot.
    pub fn table2(&self) -> Option<MmRemovalReport> {
        let (at, snapshot) = self.output.snapshot.as_ref()?;
        let window: Vec<&PaymentRecord> = self
            .output
            .payments()
            .filter(|p| {
                // The replay window covers the organic IOU traffic; the
                // spam campaigns (MTL, CCK) ride dedicated chains rather
                // than the Market-Maker fabric the experiment probes.
                p.timestamp >= *at
                    && !p.currency.is_xrp()
                    && p.currency != Currency::MTL
                    && p.currency != Currency::CCK
            })
            .collect();
        Some(ripple_analytics::mm_removal_replay(
            snapshot,
            &self.output.cast.market_makers,
            window.into_iter(),
        ))
    }

    /// E9–E11 — Figure 7: the top-`n` intermediaries with trust and
    /// EUR-aggregated balance profiles.
    pub fn figure7(&self, n: usize) -> ripple_analytics::HubReport {
        let names: HashMap<AccountId, String> = self
            .output
            .cast
            .gateways
            .iter()
            .map(|g| (g.account, g.name.clone()))
            .collect();
        ripple_analytics::hubs::hub_report(
            self.output.payments(),
            &self.output.final_state,
            &names,
            &RateTable::eur_2015(),
            n,
        )
    }

    /// E14 — offer-placement concentration across Market Makers.
    pub fn offer_concentration(&self) -> OfferConcentration {
        ripple_analytics::offer_concentration(self.output.events.iter())
    }

    /// Monthly payment/sender trends (the appendix's "trends of its
    /// payments").
    pub fn timeline(&self) -> Vec<ripple_analytics::MonthRow> {
        ripple_analytics::monthly_timeline(self.output.payments())
    }

    /// Population statistics (the paper: 165K users, 55K active as of
    /// August 2015).
    pub fn user_stats(&self) -> ripple_analytics::UserStats {
        ripple_analytics::user_stats(self.output.events.iter())
    }

    /// Builds the de-anonymization attack index at the given resolution.
    /// Indexes built through this method share one record arena (see
    /// [`Study::payment_arena`]).
    pub fn attack_index(&self, spec: ResolutionSpec) -> DeanonIndex {
        DeanonIndex::build_shared(self.payment_arena(), spec)
    }
}
