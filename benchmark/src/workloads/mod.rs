//! The five workloads. Each drives the product through `calls.rs` only
//! and runs in its own process.

pub mod archive_serve;
pub mod consensus_sim;
pub mod credit_probe;
pub mod history_build;
pub mod paper_study;

use crate::harness::{self, Opts, Outcome};

/// Runs the workload `opts` names; `None` for an unknown name.
pub fn run(opts: &Opts) -> Option<Outcome> {
    Some(match opts.workload.as_str() {
        "history_build" => harness::run::<history_build::HistoryBuild>(opts),
        "paper_study" => harness::run::<paper_study::PaperStudy>(opts),
        "credit_probe" => harness::run::<credit_probe::CreditProbe>(opts),
        "archive_serve" => harness::run::<archive_serve::ArchiveServe>(opts),
        "consensus_sim" => harness::run::<consensus_sim::ConsensusSim>(opts),
        _ => return None,
    })
}
