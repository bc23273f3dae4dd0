//! The budgeted check runner: round-robins the differential [`TARGETS`],
//! shrinks any divergence with [`ddmin`], and packages the result as a
//! replayable [`CheckCase`].

use std::time::{Duration, Instant};

use ripple_obs::LazyCounter;

use crate::case::{CasePayload, CheckCase};
use crate::diff::{run_book_plan, run_engine_plan, run_ledger_plan, run_router_plan};
use crate::explore::{gen_consensus_plan, run_consensus_plan, ConsensusPlan};
use crate::gen::{
    gen_book_plan, gen_engine_plan, gen_ledger_plan, gen_router_plan, BookPlan, EnginePlan,
    LedgerCasePlan, RouterPlan,
};
use crate::shrink::ddmin;
use crate::storefuzz::{gen_store_plan, run_store_plan, StorePlan};

static CASES_RUN: LazyCounter = LazyCounter::new("check.cases.run");
static DIVERGENCES: LazyCounter = LazyCounter::new("check.divergences");
static SHRINK_STEPS: LazyCounter = LazyCounter::new("check.shrink.steps");

/// The differential targets the runner cycles through.
pub const TARGETS: [&str; 6] = ["ledger", "engine", "book", "store", "consensus", "router"];

/// Configuration for one [`run_check`] campaign.
#[derive(Debug, Clone)]
pub struct CheckConfig {
    /// Campaign seed; case `i` derives its seed from `seed` and `i`.
    pub seed: u64,
    /// Operations per generated ledger case.
    pub ops: usize,
    /// Wall-clock budget; checked between cases, so the campaign overruns
    /// by at most one case.
    pub budget: Duration,
    /// Run at least this many cases even if the budget has lapsed.
    pub min_cases: u64,
    /// Hard cap on cases regardless of remaining budget.
    pub max_cases: u64,
}

impl Default for CheckConfig {
    fn default() -> Self {
        CheckConfig {
            seed: 7,
            ops: 40,
            budget: Duration::from_secs(10),
            min_cases: 50,
            max_cases: 1_000_000,
        }
    }
}

/// Outcome of a [`run_check`] campaign.
#[derive(Debug, Clone)]
pub struct CheckReport {
    /// Total cases executed, across all targets.
    pub cases_run: u64,
    /// Cases executed per target, indexed like [`TARGETS`].
    pub per_target: [u64; TARGETS.len()],
    /// Every divergence found, shrunk and replayable.
    pub divergences: Vec<CheckCase>,
    /// Total shrink-candidate evaluations spent minimizing divergences.
    pub shrink_steps: u64,
    /// Wall-clock time the campaign took.
    pub elapsed: Duration,
}

impl CheckReport {
    /// True when no target diverged.
    pub fn clean(&self) -> bool {
        self.divergences.is_empty()
    }
}

/// splitmix64 — decorrelates per-case seeds from the campaign seed.
fn mix(seed: u64, i: u64) -> u64 {
    let mut z = seed.wrapping_add(i.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Runs one budgeted differential campaign over all [`TARGETS`].
///
/// Case `i` exercises target `i % TARGETS.len()` with seed `mix(config.seed, i)`, so a
/// campaign with the same seed and budget ordering is deterministic in
/// which cases it generates (the budget only decides how many run). Every
/// divergence is shrunk to a minimal plan before being reported.
pub fn run_check(config: &CheckConfig) -> CheckReport {
    let started = Instant::now();
    // Touch every counter up front so a clean run still reports all three
    // names in the metrics snapshot, not just the ones that incremented.
    CASES_RUN.add(0);
    DIVERGENCES.add(0);
    SHRINK_STEPS.add(0);
    let mut report = CheckReport {
        cases_run: 0,
        per_target: [0; TARGETS.len()],
        divergences: Vec::new(),
        shrink_steps: 0,
        elapsed: Duration::ZERO,
    };
    for i in 0..config.max_cases {
        if i >= config.min_cases && started.elapsed() >= config.budget {
            break;
        }
        let case_seed = mix(config.seed, i);
        let target = (i % TARGETS.len() as u64) as usize;
        report.cases_run += 1;
        report.per_target[target] += 1;
        CASES_RUN.add(1);
        let found = match target {
            0 => check_ledger(case_seed, config.ops, &mut report),
            1 => check_engine(case_seed, &mut report),
            2 => check_book(case_seed, &mut report),
            3 => check_store(case_seed, &mut report),
            4 => check_consensus(case_seed, &mut report),
            _ => check_router(case_seed, &mut report),
        };
        if let Some(case) = found {
            DIVERGENCES.add(1);
            report.divergences.push(case);
        }
    }
    report.elapsed = started.elapsed();
    report
}

/// Records `steps` shrink evaluations against both the report and metrics.
fn note_steps(report: &mut CheckReport, steps: u64) {
    report.shrink_steps += steps;
    SHRINK_STEPS.add(steps);
}

fn check_ledger(seed: u64, ops: usize, report: &mut CheckReport) -> Option<CheckCase> {
    let plan = gen_ledger_plan(seed, ops);
    run_ledger_plan(&plan)?;
    let (min_ops, steps) = ddmin(&plan.ops, |subset| {
        run_ledger_plan(&LedgerCasePlan {
            genesis: plan.genesis.clone(),
            ops: subset.to_vec(),
        })
        .is_some()
    });
    note_steps(report, steps);
    let shrunk = LedgerCasePlan {
        genesis: plan.genesis,
        ops: min_ops,
    };
    let divergence = run_ledger_plan(&shrunk).expect("shrunk case still fails");
    Some(CheckCase {
        seed,
        divergence,
        payload: CasePayload::Ledger(shrunk),
    })
}

fn check_engine(seed: u64, report: &mut CheckReport) -> Option<CheckCase> {
    let plan = gen_engine_plan(seed);
    run_engine_plan(&plan)?;
    // Shrink the debt hops first (they are pure setup), then the trust
    // graph itself; the payment parameters stay fixed.
    let (min_hops, hop_steps) = ddmin(&plan.hops, |subset| {
        run_engine_plan(&EnginePlan {
            hops: subset.to_vec(),
            ..plan.clone()
        })
        .is_some()
    });
    let hop_shrunk = EnginePlan {
        hops: min_hops,
        ..plan.clone()
    };
    let (min_trust, trust_steps) = ddmin(&hop_shrunk.trust, |subset| {
        run_engine_plan(&EnginePlan {
            trust: subset.to_vec(),
            ..hop_shrunk.clone()
        })
        .is_some()
    });
    note_steps(report, hop_steps + trust_steps);
    let shrunk = EnginePlan {
        trust: min_trust,
        ..hop_shrunk
    };
    let divergence = run_engine_plan(&shrunk).expect("shrunk case still fails");
    Some(CheckCase {
        seed,
        divergence,
        payload: CasePayload::Engine(shrunk),
    })
}

fn check_book(seed: u64, report: &mut CheckReport) -> Option<CheckCase> {
    let plan = gen_book_plan(seed);
    run_book_plan(&plan)?;
    let (min_offers, steps) = ddmin(&plan.offers, |subset| {
        run_book_plan(&BookPlan {
            offers: subset.to_vec(),
            fill_raw: plan.fill_raw,
        })
        .is_some()
    });
    note_steps(report, steps);
    let shrunk = BookPlan {
        offers: min_offers,
        fill_raw: plan.fill_raw,
    };
    let divergence = run_book_plan(&shrunk).expect("shrunk case still fails");
    Some(CheckCase {
        seed,
        divergence,
        payload: CasePayload::Book(shrunk),
    })
}

fn check_store(seed: u64, report: &mut CheckReport) -> Option<CheckCase> {
    let plan = gen_store_plan(seed);
    run_store_plan(&plan)?;
    let (min_ops, steps) = ddmin(&plan.ops, |subset| {
        run_store_plan(&StorePlan {
            corpus_seed: plan.corpus_seed,
            events: plan.events,
            ops: subset.to_vec(),
        })
        .is_some()
    });
    note_steps(report, steps);
    let shrunk = StorePlan {
        corpus_seed: plan.corpus_seed,
        events: plan.events,
        ops: min_ops,
    };
    let divergence = run_store_plan(&shrunk).expect("shrunk case still fails");
    Some(CheckCase {
        seed,
        divergence,
        payload: CasePayload::Store(shrunk),
    })
}

fn check_consensus(seed: u64, report: &mut CheckReport) -> Option<CheckCase> {
    let plan = gen_consensus_plan(seed);
    run_consensus_plan(&plan)?;
    let (min_events, steps) = ddmin(&plan.events, |subset| {
        run_consensus_plan(&ConsensusPlan {
            events: subset.to_vec(),
            ..plan.clone()
        })
        .is_some()
    });
    note_steps(report, steps);
    let shrunk = ConsensusPlan {
        events: min_events,
        ..plan
    };
    let divergence = run_consensus_plan(&shrunk).expect("shrunk case still fails");
    Some(CheckCase {
        seed,
        divergence,
        payload: CasePayload::Consensus(shrunk),
    })
}

fn check_router(seed: u64, report: &mut CheckReport) -> Option<CheckCase> {
    let plan = gen_router_plan(seed);
    run_router_plan(&plan)?;
    // Shrink the query stream first (later queries are usually innocent
    // bystanders), then the debt hops, then the trust graph.
    let (min_queries, query_steps) = ddmin(&plan.queries, |subset| {
        run_router_plan(&RouterPlan {
            queries: subset.to_vec(),
            ..plan.clone()
        })
        .is_some()
    });
    let query_shrunk = RouterPlan {
        queries: min_queries,
        ..plan.clone()
    };
    let (min_hops, hop_steps) = ddmin(&query_shrunk.hops, |subset| {
        run_router_plan(&RouterPlan {
            hops: subset.to_vec(),
            ..query_shrunk.clone()
        })
        .is_some()
    });
    let hop_shrunk = RouterPlan {
        hops: min_hops,
        ..query_shrunk
    };
    let (min_trust, trust_steps) = ddmin(&hop_shrunk.trust, |subset| {
        run_router_plan(&RouterPlan {
            trust: subset.to_vec(),
            ..hop_shrunk.clone()
        })
        .is_some()
    });
    note_steps(report, query_steps + hop_steps + trust_steps);
    let shrunk = RouterPlan {
        trust: min_trust,
        ..hop_shrunk
    };
    let divergence = run_router_plan(&shrunk).expect("shrunk case still fails");
    Some(CheckCase {
        seed,
        divergence,
        payload: CasePayload::Router(shrunk),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_campaign_is_clean_and_deterministic() {
        let config = CheckConfig {
            seed: 7,
            ops: 20,
            budget: Duration::ZERO,
            min_cases: 18,
            max_cases: 18,
        };
        let a = run_check(&config);
        assert_eq!(a.cases_run, 18);
        assert_eq!(a.per_target, [3; 6]);
        assert!(
            a.clean(),
            "differential smoke campaign diverged: {}",
            a.divergences[0].divergence
        );
        let b = run_check(&config);
        assert_eq!(b.cases_run, a.cases_run);
        assert!(b.clean());
    }
}
